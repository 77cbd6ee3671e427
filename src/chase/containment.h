// Query containment under constraints: Q ⊆_Σ Q'.
//
// One engine: chase the start instance (CanonDB(Q), or an explicit one)
// with Σ and test Q' after every round. Sound always; complete whenever
// the chase terminates (e.g. FDs + full TGDs, weakly-acyclic TGDs). Any
// budget exit reports kUnknown. The chase is breadth-first
// (chase/chase.h), so on *linear* TGDs (single body atom) its rounds are
// the Johnson–Klug derivation levels: a run stopped by max_rounds at the
// JK depth bound (JohnsonKlugDepthBound) found no match up to that depth,
// which is a complete refutation for IDs / linear TGDs of bounded
// semi-width (paper Prop 5.6 / E.8). Only the caller knows whether
// max_rounds was that bound, so it alone turns such a kRounds exit into
// "not contained" — core/answerability.cc's linear pipeline does, behind
// the paper's NP results after linearization.
//
// Every check runs one pipeline: key → cache lookup → relevance →
// signature prefilter → countermodel → saturate → verdict and record.
//
// The pipeline consults a process-wide memoization cache keyed by a
// canonical encoding of the inputs its saturate stage reads (start
// instance, goal, constraints, budgets, evaluation and pruning modes):
// Answerability's per-access-method checks and repeated Decide calls over
// the same schema re-pose identical containment problems, and a hit
// replays the stored verdict and chase statistics without re-chasing. Opt
// out per call via ChaseOptions::use_containment_cache; observe via the
// containment.cache.{hits,misses,evictions} counters.
//
// The pipeline is goal-directed by default (ChaseOptions::prune_to_goal,
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
/// chased instance itself is not kept). A budget exit (kBudgetExceeded,
/// with `exhausted` naming the budget) always leaves the verdict kUnknown.
struct ContainmentOutcome {
  ContainmentVerdict verdict = ContainmentVerdict::kUnknown;
  ChaseStatus status = ChaseStatus::kCompleted;
  ChaseExhausted exhausted = ChaseExhausted::kNone;  // set iff budget trip
  uint64_t rounds = 0;
  uint64_t facts = 0;  // facts in the final instance
  uint64_t tgd_steps = 0;
  uint64_t goal_checks = 0;
  bool cache_hit = false;  // replayed from the memoization cache
};

/// Containment check for Boolean CQs: Q ⊆_Σ Q'.
ContainmentOutcome CheckContainment(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options = {},
    const std::vector<CardinalityRule>& cardinality_rules = {});

/// Containment check starting from an explicit instance (e.g. a canonical
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

/// Drops every memoized containment outcome (tests and benchmarks that
/// want to measure the uncached engine call this between runs).
void ClearContainmentCache();

/// Number of outcomes currently memoized.
size_t ContainmentCacheSize();

}  // namespace rbda

#endif  // RBDA_CHASE_CONTAINMENT_H_
