// Query containment under constraints: Q ⊆_Σ Q'.
//
// Two engines:
//  * CheckContainment — generic: chase CanonDB(Q) with Σ, test Q' after
//    every round. Sound always; complete whenever the chase terminates
//    (e.g. FDs + full TGDs, weakly-acyclic TGDs). Reports kUnknown when a
//    budget runs out before termination.
//  * CheckLinearContainment — the Johnson–Klug-style engine for *linear*
//    TGDs (single body atom): a depth-bounded breadth-first chase which is
//    sound AND complete when run to the JK depth bound for IDs / linear
//    TGDs of bounded semi-width (paper Prop 5.6 / E.8). This is the engine
//    behind the paper's NP results after linearization.
//
// Both engines run one pipeline: key → cache lookup → relevance →
// signature prefilter → countermodel → saturate → verdict and record. Only
// the saturate stage differs (the budgeted restricted chase, or the
// depth-bounded tree chase).
//
// The pipeline consults a process-wide memoization cache keyed by a
// canonical encoding of the engine and the inputs its saturate stage reads
// (start instance, goal, constraints, budgets, pruning mode):
// Answerability's per-access-method checks and repeated Decide calls over
// the same schema re-pose identical containment problems, and a hit
// replays the stored verdict and chase statistics without re-chasing. Opt
// out per call via ChaseOptions::use_containment_cache; observe via the
// containment.cache.{hits,misses,evictions} counters.
//
// Both engines are goal-directed by default (ChaseOptions::prune_to_goal,
// chase/relevance.h): constraints that cannot contribute to deriving the
// goal — nor to any EGD — are skipped, and a relation-signature prefilter
// answers kNotContained without chasing when the goal's relations are not
// even signature-reachable from the start instance. Pruned and unpruned
// runs agree on every definite verdict (the pruned run may be MORE
// definite where the full chase exhausts its budget); the pruning mode is
// part of the memoization key. Observe via containment.prune.{checks,
// constraints_pruned,prefilter_hits}; disable via --prune=off/RBDA_PRUNE.
#ifndef RBDA_CHASE_CONTAINMENT_H_
#define RBDA_CHASE_CONTAINMENT_H_

#include "chase/chase.h"
#include "logic/conjunctive_query.h"

namespace rbda {

enum class ContainmentVerdict {
  kContained,
  kNotContained,
  kUnknown,  // resource budget exhausted before the chase terminated
};

/// A containment verdict and the statistics of the run behind it (the
/// chased instance itself is not kept). The linear engine counts depth
/// levels as rounds; it reports kBudgetExceeded with exhausted = kRounds
/// when it stops at its depth bound with facts still to expand, which
/// leaves the verdict kNotContained (no match up to that depth).
struct ContainmentOutcome {
  ContainmentVerdict verdict = ContainmentVerdict::kUnknown;
  ChaseStatus status = ChaseStatus::kCompleted;
  ChaseExhausted exhausted = ChaseExhausted::kNone;  // set iff budget trip
  uint64_t rounds = 0;
  uint64_t facts = 0;  // facts in the final instance
  uint64_t tgd_steps = 0;
  uint64_t goal_checks = 0;
};

/// Generic containment check for Boolean CQs: Q ⊆_Σ Q'.
ContainmentOutcome CheckContainment(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options = {},
    const std::vector<CardinalityRule>& cardinality_rules = {});

/// Generic engine starting from an explicit instance (e.g. a canonical
/// database enriched with accessibility facts) instead of CanonDB(Q).
ContainmentOutcome CheckContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options = {},
    const std::vector<CardinalityRule>& cardinality_rules = {});

/// Johnson–Klug depth bound for a tight match of a query with
/// `goal_atoms` atoms under IDs / linear TGDs decomposed into a width-w
/// part of size `sigma_bounded` and an acyclic part of size
/// `sigma_acyclic`, over a signature of maximal arity `arity`
/// (paper Lemma E.6 and Prop 5.6/E.8).
uint64_t JohnsonKlugDepthBound(size_t goal_atoms, size_t sigma_bounded,
                               size_t sigma_acyclic, size_t arity,
                               size_t width);

/// Depth-bounded chase containment for linear TGDs (no FDs). A
/// kNotContained verdict is complete when the chase terminated (status
/// kCompleted) or when `max_depth` is at least the JK bound for the
/// decomposed constraint set. `max_facts` guards against breadth blowup
/// (kUnknown if exceeded).
ContainmentOutcome CheckLinearContainment(const ConjunctiveQuery& q,
                                          const ConjunctiveQuery& q_prime,
                                          const std::vector<Tgd>& linear_tgds,
                                          Universe* universe,
                                          uint64_t max_depth,
                                          uint64_t max_facts = 500000,
                                          const ChaseOptions& options = {});

/// Depth-bounded linear engine starting from an explicit instance. Of the
/// options bag, the linear engine honors use_containment_cache,
/// prune_to_goal, and inject_overprune_for_testing (depth/fact budgets
/// are the explicit parameters).
ContainmentOutcome CheckLinearContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const std::vector<Tgd>& linear_tgds, Universe* universe,
    uint64_t max_depth, uint64_t max_facts = 500000,
    const ChaseOptions& options = {});

/// Drops every memoized containment outcome (tests and benchmarks that
/// want to measure the uncached engines call this between runs).
void ClearContainmentCache();

/// Number of outcomes currently memoized.
size_t ContainmentCacheSize();

}  // namespace rbda

#endif  // RBDA_CHASE_CONTAINMENT_H_
