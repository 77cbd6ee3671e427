// The chase (paper §2, "Query containment and chase proofs").
//
// Starting from an instance, repeatedly fire active triggers of TGDs (add
// head facts, minting fresh nulls for existential variables) and repair FD
// violations (EGD steps that merge terms). The run is round-based and
// budgeted; it records a proof trace that later stages (plan synthesis)
// consume.
//
// Rounds are breadth-first and fact-major. The *pivots* of round r are
// the facts created in round r−1, in creation order; for each pivot, each
// enabled TGD, and each body atom that unifies with it, the round
// enumerates the body matches with that atom bound to the pivot and fires
// the active triggers at once (re-checking activeness right before each
// firing). A fact created in round r is a pivot only in round r+1. On
// linear TGDs (one body atom) the facts of round r are therefore exactly
// derivation level r of the Johnson–Klug argument (paper Prop 5.6,
// Lemmas E.6–E.8): the engine is the depth-bounded tree chase, and
// max_rounds is its depth bound. The order is not cosmetic:
// restricted-chase termination depends on it. A TGD-major order that
// chains a fact into the round that created it let two linearized ID
// checks of the Table 1 summary (goal W14_R0@p) each grow to the
// 500,000-fact budget, taking about 195 s apiece; this order decides
// them in 164 and 214 rounds with 20,588 and 34,675 facts.
//
// The frontier makes the rounds *semi-naive* (delta-driven): a trigger
// whose facts all predate round r−1 was already considered when its
// newest fact was a pivot — and the restricted chase's activeness test is
// monotone, so a once-inactive trigger stays inactive while facts only
// accumulate. Every fact is a pivot instead exactly when that argument
// breaks down:
//   * on round 1, where there is no previous round;
//   * for the round after an EGD repair merged terms — the merge rebuilds
//     the fact vectors (invalidating the frontier) and remaps terms, so
//     activeness conclusions from before the merge no longer transfer;
//   * when ChaseOptions::use_semi_naive is off (ablation/testing).
// Facts created by cardinality rules join the next frontier too. The
// frontier is the chase's only delta: the cardinality rules of round r
// read their new source and accessible facts from its pivots plus the
// facts created so far in round r.
//
// RunChaseUntil checks the goal once before round 1 and after every
// round, component by component: the goal is split once per run into its
// variable-connected components, and a component stays matched once it
// has matched (facts only accumulate, and an EGD merge is a homomorphism
// that carries the match along). After round r only the unmatched
// components are checked, by binding each of their atoms to each fact
// created in round r (through the same pivot-atom index the TGD bodies
// use) and searching the rest of the component in the whole instance. A
// full search of each unmatched component replaces the pivot check before
// round 1, after a round whose EGD repair rebuilt the instance, and when
// use_semi_naive is off. Pivoting the whole goal instead would rescan a
// component that already matched once per new fact.
//
// The engine also supports the cardinality-transfer rules produced by the
// *naive* AMonDet reduction of §3 — the "∃≥j" accessibility axioms for
// result lower bounds — under the standard chase convention that distinct
// terms denote distinct values. The paper's simplification theorems make
// these rules unnecessary; they are kept for the ablation benchmarks.
#ifndef RBDA_CHASE_CHASE_H_
#define RBDA_CHASE_CHASE_H_

#include <cstdint>
#include <vector>

#include "constraints/constraint_set.h"

namespace rbda {

/// Naive §3 lower-bound axiom: if the values at `input_positions` of some
/// binding are all accessible and `source_rel` has j ≤ k distinct matching
/// tuples, then `target_rel` must contain at least j distinct matching
/// tuples (fresh nulls fill the non-input positions of created facts).
struct CardinalityRule {
  RelationId source_rel = 0;
  std::vector<uint32_t> input_positions;
  RelationId target_rel = 0;
  uint32_t bound = 1;              // k
  RelationId accessible_rel = 0;   // the unary accessible predicate
  /// When false, the rule fires for every binding regardless of
  /// accessibility (AxiomRB's unconditional lower-bound axioms).
  bool require_accessible = true;
};

struct ChaseOptions {
  uint64_t max_rounds = 1000;
  /// Fact budget, enforced *inside* rounds: a round stops at the trigger
  /// whose firing pushed the instance past the budget (exhausted=kFacts),
  /// so no single round can overshoot unboundedly.
  uint64_t max_facts = 200000;
  bool record_trace = false;
  /// Frontier-driven trigger enumeration and goal checks (see file
  /// comment). Off = every fact is a pivot every round and every goal
  /// check searches in full (the naive re-enumeration); results are
  /// homomorphically equivalent either way (ablation/property tests).
  bool use_semi_naive = true;
  /// Consult/populate the process-wide containment memoization cache when
  /// this options bag reaches CheckContainment* (no effect on RunChase
  /// itself; see chase/containment.h).
  bool use_containment_cache = true;
  /// Goal-directed relevance pruning (chase/relevance.h): the containment
  /// pipeline computes the relations backward-reachable from its goal and
  /// skip every TGD with no relevant head relation and every cardinality
  /// rule with an irrelevant target. Sound over-approximation — exact
  /// relevance is undecidable. Escape hatch: --prune=off / RBDA_PRUNE=0.
  /// No effect on plain RunChase (which has no goal to prune toward).
  bool prune_to_goal = true;
  /// Test-only hook (rbda_fuzz --inject-bug=overprune): deliberately drop
  /// one relevant relation from the computed set so the
  /// goal-pruned-vs-full checker can prove it catches unsound pruning.
  bool inject_overprune_for_testing = false;
  /// Set internally by the containment pipeline when prune_to_goal is on:
  /// the relevance bitset (indexed by RelationId) the chase restricts
  /// firing to. Null = fire everything. Not an input — callers leave it
  /// null; it is derived from (goal, Σ) and is NOT part of the
  /// memoization key, so an externally supplied filter would alias
  /// cache entries.
  const std::vector<bool>* relevant_relations = nullptr;
};

enum class ChaseStatus {
  kCompleted,       // no active triggers remain
  kBudgetExceeded,  // ran out of budget (see ChaseResult::exhausted)
  kFdConflict,      // an EGD step tried to merge two distinct constants
};

/// Which budget a kBudgetExceeded run actually tripped. Rounds and facts
/// call for different tuning (deeper recursion vs. wider breadth), so the
/// result distinguishes them.
enum class ChaseExhausted {
  kNone,    // status != kBudgetExceeded
  kRounds,  // hit ChaseOptions::max_rounds
  kFacts,   // hit ChaseOptions::max_facts
};

const char* ChaseExhaustedName(ChaseExhausted e);

/// One fired TGD trigger, for proof traces.
struct ChaseStep {
  size_t tgd_index = 0;        // into the ConstraintSet's tgds
  Substitution trigger;        // body homomorphism
  std::vector<Fact> added;     // facts created by this firing
  uint64_t round = 0;
};

struct ChaseResult {
  ChaseStatus status = ChaseStatus::kCompleted;
  ChaseExhausted exhausted = ChaseExhausted::kNone;  // set iff budget trip
  Instance instance;
  uint64_t rounds = 0;
  uint64_t tgd_steps = 0;
  uint64_t egd_merges = 0;
  uint64_t goal_checks = 0;  // goal homomorphism checks (RunChaseUntil)
  std::vector<ChaseStep> trace;  // only if options.record_trace
};

/// Runs the restricted chase of `start` with `constraints` (and optional
/// cardinality rules). `universe` mints the fresh nulls.
ChaseResult RunChase(const Instance& start, const ConstraintSet& constraints,
                     Universe* universe, const ChaseOptions& options = {},
                     const std::vector<CardinalityRule>& cardinality_rules = {});

/// Runs the chase and additionally stops (successfully) as soon as `goal`
/// holds, checking after every round. Sets `*goal_reached` accordingly.
class ConjunctiveQuery;  // from logic; full include in the .cc
ChaseResult RunChaseUntil(const Instance& start,
                          const ConstraintSet& constraints,
                          const std::vector<Atom>& goal_atoms,
                          Universe* universe, bool* goal_reached,
                          const ChaseOptions& options = {},
                          const std::vector<CardinalityRule>& cardinality_rules = {});

}  // namespace rbda

#endif  // RBDA_CHASE_CHASE_H_
