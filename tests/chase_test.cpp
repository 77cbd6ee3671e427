#include "chase/chase.h"
#include "chase/containment.h"
#include "chase/weak_acyclicity.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace rbda {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 2);
    t_ = *universe_.AddRelation("T", 1);
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
    z_ = universe_.Variable("z");
    a_ = universe_.Constant("a");
    b_ = universe_.Constant("b");
    c_ = universe_.Constant("c");
  }
  // RunChaseUntil capped at `max_rounds`.
  ChaseResult ChaseToGoal(const Instance& start, const ConstraintSet& cs,
                          const std::vector<Atom>& goal, uint64_t max_rounds,
                          bool* reached) {
    ChaseOptions options;
    options.max_rounds = max_rounds;
    return RunChaseUntil(start, cs, goal, &universe_, reached, options);
  }

  Universe universe_;
  RelationId r_, s_, t_;
  Term x_, y_, z_, a_, b_, c_;
};

TEST_F(ChaseTest, FiresTgdWithFreshNull) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.instance.NumFacts(), 2u);
  // The created fact has a null in the second position.
  FactRange rf = result.instance.FactsOf(r_);
  ASSERT_EQ(rf.size(), 1u);
  EXPECT_EQ(rf[0].arg(0), a_);
  EXPECT_TRUE(rf[0].arg(1).IsNull());
}

TEST_F(ChaseTest, RoundsAreBreadthFirst) {
  // R0(x) -> R1(x), then R1(x) -> R2(x). R1(a) is created in round 1, so
  // it is a pivot only in round 2: a fact never feeds the round that
  // created it.
  std::vector<RelationId> chain;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(*universe_.AddRelation("R" + std::to_string(i), 1));
  }
  ConstraintSet cs;
  for (int i = 0; i < 2; ++i) {
    cs.tgds.emplace_back(std::vector<Atom>{Atom(chain[i], {x_})},
                         std::vector<Atom>{Atom(chain[i + 1], {x_})});
  }
  Instance start;
  start.AddFact(chain[0], {a_});
  ChaseOptions one;
  one.max_rounds = 1;
  ChaseResult first = RunChase(start, cs, &universe_, one);
  EXPECT_TRUE(first.instance.Contains(Atom(chain[1], {a_})));
  EXPECT_FALSE(first.instance.Contains(Atom(chain[2], {a_})));
  EXPECT_EQ(first.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(first.exhausted, ChaseExhausted::kRounds);
  ChaseOptions three;
  three.max_rounds = 3;
  ChaseResult all = RunChase(start, cs, &universe_, three);
  EXPECT_TRUE(all.instance.Contains(Atom(chain[2], {a_})));
  EXPECT_EQ(all.status, ChaseStatus::kCompleted);
  EXPECT_EQ(all.rounds, 3u);  // the third round fired nothing
}

TEST_F(ChaseTest, RestrictedChaseSkipsSatisfiedTriggers) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  start.AddFact(r_, {a_, b_});  // witness already present
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.instance.NumFacts(), 2u);
  EXPECT_EQ(result.tgd_steps, 0u);
}

TEST_F(ChaseTest, ResultSatisfiesConstraints) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(t_, {x_})});
  Instance start;
  start.AddFact(r_, {a_, b_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_TRUE(cs.SatisfiedBy(result.instance));
}

TEST_F(ChaseTest, UniversalityOfChaseResult) {
  // The chase result embeds homomorphically into any model containing the
  // start instance.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  ChaseResult result = RunChase(start, cs, &universe_);

  Instance model;  // a different model of the constraints
  model.AddFact(t_, {a_});
  model.AddFact(r_, {a_, c_});
  EXPECT_TRUE(InstanceHomomorphismExists(result.instance, model));
}

TEST_F(ChaseTest, EgdMergesNulls) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  start.AddFact(r_, {a_, b_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  // The TGD never fires (witness exists), so no merge was even needed; the
  // FD holds.
  EXPECT_TRUE(cs.SatisfiedBy(result.instance));
  EXPECT_EQ(result.instance.FactsOf(r_).size(), 1u);
}

TEST_F(ChaseTest, EgdMergePrefersConstants) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  Instance start;
  Term n = universe_.FreshNull();
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, n});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.egd_merges, 1u);
  EXPECT_TRUE(result.instance.Contains(Fact(r_, {a_, b_})));
  EXPECT_EQ(result.instance.NumFacts(), 1u);
}

TEST_F(ChaseTest, EgdConstantConflictFails) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  Instance start;
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kFdConflict);
}

TEST_F(ChaseTest, BudgetExceededOnInfiniteChase) {
  // R(x,y) -> S(y,z); S(x,y) -> R(y,z): generates an infinite chain.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {y_, z_})});
  Instance start;
  start.AddFact(r_, {a_, b_});
  ChaseOptions options;
  options.max_rounds = 10;
  ChaseResult result = RunChase(start, cs, &universe_, options);
  EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded);
}

TEST_F(ChaseTest, FactBudgetEnforcedInsideRound) {
  // Ten triggers are simultaneously active in round 1, each adding a
  // 2-fact head. A round-granularity budget check would let the round run
  // to completion (30 facts); the in-round check must stop at the trigger
  // whose firing crossed the budget.
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {y_, x_})});
  Instance start;
  for (int i = 0; i < 10; ++i) {
    start.AddFact(t_, {universe_.Constant("k" + std::to_string(i))});
  }
  ChaseOptions options;
  options.max_facts = 14;
  ChaseResult result = RunChase(start, cs, &universe_, options);
  EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(result.exhausted, ChaseExhausted::kFacts);
  // Overshoot is bounded by one head, not by the rest of the round.
  EXPECT_GT(result.instance.NumFacts(), 14u);
  EXPECT_LE(result.instance.NumFacts(), 16u);
}

TEST_F(ChaseTest, RowIdCapDegradesToBudgetExceededNotAbort) {
  // When a relation store runs out of 32-bit row ids mid-firing, the chase
  // must degrade exactly like a fact-budget trip (kBudgetExceeded /
  // kFacts) instead of aborting the process. The testing cap stands in
  // for the real 2^32 ceiling.
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {y_, x_})});
  Instance start;
  for (int i = 0; i < 10; ++i) {
    start.AddFact(t_, {universe_.Constant("k" + std::to_string(i))});
  }
  start.SetMaxRowsPerRelationForTesting(4);  // r fills up on the 5th head
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(result.exhausted, ChaseExhausted::kFacts);
  // 10 t-facts + at most 4 rows each in r and s before the cap trips.
  EXPECT_LE(result.instance.NumFacts(), 18u);
}

TEST_F(ChaseTest, FactBudgetDoesNotMaskReachedGoal) {
  // The same budget trip, but the goal appears before the budget does:
  // RunChaseUntil must report the goal, not the trip.
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {y_, x_})});
  Instance start;
  for (int i = 0; i < 10; ++i) {
    start.AddFact(t_, {universe_.Constant("g" + std::to_string(i))});
  }
  ChaseOptions options;
  options.max_facts = 14;
  bool goal_reached = false;
  std::vector<Atom> goal{Atom(r_, {x_, y_})};
  ChaseResult result = RunChaseUntil(start, cs, goal, &universe_,
                                     &goal_reached, options);
  EXPECT_TRUE(goal_reached);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
}

TEST_F(ChaseTest, GoalComponentsMatchInDifferentRounds) {
  // P0 -> P1 -> P2 and Q0 -> Q1. The goal Q1(y) ∧ P2(x) has two
  // components: Q1(y) matches in round 1, P2(x) in round 2. The round-2
  // check sees only P2(a) new, so Q1(y) must stay matched from round 1.
  std::vector<RelationId> p, q;
  for (int i = 0; i < 3; ++i) {
    p.push_back(*universe_.AddRelation("P" + std::to_string(i), 1));
    q.push_back(*universe_.AddRelation("Q" + std::to_string(i), 1));
  }
  ConstraintSet cs;
  for (const auto& [from, to] : {std::pair{p[0], p[1]}, std::pair{p[1], p[2]},
                                 std::pair{q[0], q[1]}}) {
    cs.tgds.emplace_back(std::vector<Atom>{Atom(from, {x_})},
                         std::vector<Atom>{Atom(to, {x_})});
  }
  Instance start;
  start.AddFact(p[0], {a_});
  start.AddFact(q[0], {b_});
  std::vector<Atom> goal{Atom(q[1], {y_}), Atom(p[2], {x_})};
  bool reached = false;
  ChaseResult result = ChaseToGoal(start, cs, goal, 10, &reached);
  EXPECT_TRUE(reached);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_EQ(result.goal_checks, 3u);  // before round 1, after rounds 1, 2

  ChaseResult capped = ChaseToGoal(start, cs, goal, 1, &reached);
  EXPECT_FALSE(reached);
  EXPECT_EQ(capped.exhausted, ChaseExhausted::kRounds);
  EXPECT_FALSE(FindHomomorphism(goal, capped.instance).has_value());
}

TEST_F(ChaseTest, GoalComponentStaysMatchedAcrossEgdRebuild) {
  // Round 1: T(a) creates R(a,n) and V(n), matching the component
  // R(x,y) ∧ V(y). Round 2: S(a,b) ∧ V(n) creates R(a,b), and the FD
  // R: 0 -> 1 merges n into b, rebuilding the instance. Round 3 pivots on
  // every fact and R(a,b) creates U(a), matching the other component.
  RelationId v = *universe_.AddRelation("V", 1);
  RelationId u = *universe_.AddRelation("U", 1);
  Term w = universe_.Variable("w");
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_}), Atom(v, {y_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, w}), Atom(v, {y_})},
                       std::vector<Atom>{Atom(r_, {x_, w})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, b_})},
                       std::vector<Atom>{Atom(u, {x_})});
  Instance start;
  start.AddFact(s_, {a_, b_});  // S first: no V yet when S(a,b) pivots
  start.AddFact(t_, {a_});
  std::vector<Atom> matched_first{Atom(r_, {x_, y_}), Atom(v, {y_})};
  std::vector<Atom> goal = matched_first;
  goal.push_back(Atom(u, {z_}));

  bool reached = false;
  ChaseResult result = ChaseToGoal(start, cs, goal, 10, &reached);
  EXPECT_TRUE(reached);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_EQ(result.egd_merges, 1u);

  ChaseResult capped = ChaseToGoal(start, cs, goal, 2, &reached);
  EXPECT_FALSE(reached);
  EXPECT_EQ(capped.egd_merges, 1u);
  EXPECT_TRUE(capped.instance.Contains(Atom(v, {b_})));
  EXPECT_TRUE(FindHomomorphism(matched_first, capped.instance).has_value());
  EXPECT_FALSE(FindHomomorphism(goal, capped.instance).has_value());
}

TEST_F(ChaseTest, ConnectedGoalJoinsStartFactWithRoundFact) {
  // The goal S(x,y) ∧ R(x,z) is one component; its only match joins the
  // start fact S(a,b) with R(a,n), created in round 2.
  RelationId w = *universe_.AddRelation("W", 1);
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(w, {x_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(w, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(s_, {a_, b_});
  start.AddFact(t_, {a_});
  std::vector<Atom> goal{Atom(s_, {x_, y_}), Atom(r_, {x_, z_})};
  bool reached = false;
  ChaseResult result = ChaseToGoal(start, cs, goal, 10, &reached);
  EXPECT_TRUE(reached);
  EXPECT_EQ(result.rounds, 2u);

  ChaseResult capped = ChaseToGoal(start, cs, goal, 1, &reached);
  EXPECT_FALSE(reached);
  EXPECT_FALSE(FindHomomorphism(goal, capped.instance).has_value());
}

TEST_F(ChaseTest, GroundAndEmptyGoals) {
  // S(x,y) -> T(y) derives T(b) in round 1.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(t_, {y_})});
  Instance start;
  start.AddFact(s_, {a_, b_});
  bool reached = false;

  // The empty goal holds before any round.
  ChaseResult empty = ChaseToGoal(start, cs, {}, 10, &reached);
  EXPECT_TRUE(reached);
  EXPECT_EQ(empty.rounds, 0u);

  // A ground atom of the start instance holds before any round.
  ChaseResult given = ChaseToGoal(start, cs, {Atom(s_, {a_, b_})}, 10,
                                  &reached);
  EXPECT_TRUE(reached);
  EXPECT_EQ(given.rounds, 0u);

  // A derived ground atom, alone and beside a ground atom of the start.
  ChaseResult derived = ChaseToGoal(
      start, cs, {Atom(t_, {b_}), Atom(s_, {a_, b_})}, 10, &reached);
  EXPECT_TRUE(reached);
  EXPECT_EQ(derived.rounds, 1u);

  // A ground atom the chase never derives: the chase terminates first.
  ChaseResult never = ChaseToGoal(start, cs, {Atom(t_, {c_})}, 10, &reached);
  EXPECT_FALSE(reached);
  EXPECT_EQ(never.status, ChaseStatus::kCompleted);
}

TEST_F(ChaseTest, FdRepairResolvesLongMergeChain) {
  // R(k_i, m_i) and R(k_i, m_{i+1}) force m_i = m_{i+1} for a chain of 400
  // nulls ending in the constant b: the whole chain must collapse onto b in
  // one chase, with exactly one merge per link. The union-find repair
  // resolves this without restarting the scan after every merge (the old
  // restart-on-merge repair was quadratic here).
  constexpr int kChain = 400;
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  std::vector<Term> m;
  for (int i = 0; i < kChain; ++i) m.push_back(universe_.FreshNull());
  m.push_back(b_);
  Instance start;
  for (int i = 0; i < kChain; ++i) {
    Term key = universe_.Constant("key" + std::to_string(i));
    start.AddFact(r_, {key, m[i]});
    start.AddFact(r_, {key, m[i + 1]});
  }
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.egd_merges, static_cast<uint64_t>(kChain));
  // Every merged class resolved to the constant end of the chain.
  EXPECT_EQ(result.instance.NumFacts(), static_cast<size_t>(kChain));
  for (FactRef f : result.instance.FactsOf(r_)) {
    EXPECT_EQ(f.arg(1), b_);
  }
  EXPECT_TRUE(cs.SatisfiedBy(result.instance));
}

TEST_F(ChaseTest, FdRepairConflictAcrossMergeChain) {
  // As above but both ends of the chain are distinct constants: resolving
  // the chain must surface the conflict rather than pick a winner.
  constexpr int kChain = 50;
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  std::vector<Term> m;
  m.push_back(a_);
  for (int i = 0; i < kChain - 1; ++i) m.push_back(universe_.FreshNull());
  m.push_back(c_);
  Instance start;
  for (int i = 0; i < kChain; ++i) {
    Term key = universe_.Constant("ckey" + std::to_string(i));
    start.AddFact(r_, {key, m[i]});
    start.AddFact(r_, {key, m[i + 1]});
  }
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kFdConflict);
}

TEST_F(ChaseTest, TraceRecordsFirings) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  ChaseOptions options;
  options.record_trace = true;
  ChaseResult result = RunChase(start, cs, &universe_, options);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].tgd_index, 0u);
  EXPECT_EQ(result.trace[0].added.size(), 1u);
}

TEST_F(ChaseTest, CardinalityRuleCreatesWitnesses) {
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule;
  rule.source_rel = r_;
  rule.input_positions = {0};
  rule.target_rel = racc;
  rule.bound = 2;
  rule.accessible_rel = acc;

  Instance start;
  start.AddFact(acc, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  start.AddFact(r_, {a_, universe_.Constant("d")});  // 3 matches, bound 2
  start.AddFact(r_, {b_, c_});                       // binding b not accessible

  ConstraintSet cs;
  ChaseResult result = RunChase(start, cs, &universe_, {}, {rule});
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  // Exactly min(2, 3) = 2 accessed witnesses for binding a; none for b.
  size_t count_a = 0, count_b = 0;
  for (FactRef f : result.instance.FactsOf(racc)) {
    if (f.arg(0) == a_) ++count_a;
    if (f.arg(0) == b_) ++count_b;
  }
  EXPECT_EQ(count_a, 2u);
  EXPECT_EQ(count_b, 0u);
}

TEST_F(ChaseTest, CardinalityRuleRespectsExistingWitnesses) {
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule{r_, {0}, racc, 2, acc};

  Instance start;
  start.AddFact(acc, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  start.AddFact(racc, {a_, b_});  // one witness already there
  ConstraintSet cs;
  ChaseResult result = RunChase(start, cs, &universe_, {}, {rule});
  EXPECT_EQ(result.instance.FactsOf(racc).size(), 2u);
}

// ---- Containment. ----

TEST_F(ChaseTest, ContainmentUnderIds) {
  // Σ: R(x,y) -> S(y,x).  Q: R(a,b)  ⊆_Σ  Q': S(b,a)? Yes.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery good = ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})});
  ConjunctiveQuery bad = ConjunctiveQuery::Boolean({Atom(s_, {a_, b_})});
  EXPECT_EQ(CheckContainment(q, good, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckContainment(q, bad, cs, &universe_).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(ChaseTest, ContainmentVacuousOnFdConflict) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  // Q forces two distinct constants at a determined position.
  ConjunctiveQuery q = ConjunctiveQuery::Boolean(
      {Atom(r_, {a_, b_}), Atom(r_, {a_, c_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  EXPECT_EQ(CheckContainment(q, qp, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
}

TEST_F(ChaseTest, ContainmentUnknownOnBudget) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {y_, z_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  ChaseOptions options;
  options.max_rounds = 5;
  options.prune_to_goal = false;  // exercise the raw budgeted-chase path
  EXPECT_EQ(CheckContainment(q, qp, cs, &universe_, options).verdict,
            ContainmentVerdict::kUnknown);
  // Goal-directed mode notices that no constraint can ever produce T and
  // refutes the containment outright — strictly more complete than the
  // budget-limited chase on the same inputs.
  ChaseOptions pruned;
  pruned.max_rounds = 5;
  EXPECT_EQ(CheckContainment(q, qp, cs, &universe_, pruned).verdict,
            ContainmentVerdict::kNotContained);
}

// The linear (Johnson–Klug) checks run on the one chase with max_rounds
// as the depth bound: the breadth-first rounds are the derivation levels.
TEST_F(ChaseTest, LinearContainmentMatchesGeneric) {
  // Chain of UIDs: R[1] ⊆ S[0], S[1] ⊆ T[0].
  ConstraintSet ids;
  ids.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                        std::vector<Atom>{Atom(s_, {y_, z_})});
  ids.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                        std::vector<Atom>{Atom(t_, {y_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery yes = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  ConjunctiveQuery no = ConjunctiveQuery::Boolean({Atom(t_, {a_})});

  ChaseOptions options;
  options.max_rounds = JohnsonKlugDepthBound(1, ids.tgds.size(), 0, 2, 1);
  EXPECT_EQ(CheckContainment(q, yes, ids, &universe_, options).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckContainment(q, no, ids, &universe_, options).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(ChaseTest, LinearContainmentInfiniteChaseDecided) {
  // Cyclic UIDs: infinite restricted chase, but the JK bound still decides.
  ConstraintSet ids;
  ids.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                        std::vector<Atom>{Atom(s_, {y_, z_})});
  ids.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                        std::vector<Atom>{Atom(r_, {y_, z_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery no = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  uint64_t depth = JohnsonKlugDepthBound(1, ids.tgds.size(), 0, 2, 1);
  ChaseOptions unpruned;
  unpruned.max_rounds = depth;
  unpruned.prune_to_goal = false;
  ContainmentOutcome outcome =
      CheckContainment(q, no, ids, &universe_, unpruned);
  // The chase never terminates, so the depth bound stopped the run with no
  // match up to it. The engine reports the budget exit; a caller that
  // knows `depth` is the JK bound reads it as a complete refutation.
  EXPECT_EQ(outcome.verdict, ContainmentVerdict::kUnknown);
  EXPECT_EQ(outcome.rounds, depth);  // ran to the bound
  EXPECT_EQ(outcome.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(outcome.exhausted, ChaseExhausted::kRounds);
  // Goal-directed mode refutes from the relation signature alone: T is not
  // reachable from {R, S}, so the engine answers before expanding a level.
  ChaseOptions pruned;
  pruned.max_rounds = depth;
  ContainmentOutcome refuted = CheckContainment(q, no, ids, &universe_, pruned);
  EXPECT_EQ(refuted.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(refuted.rounds, 0u);
  EXPECT_EQ(refuted.status, ChaseStatus::kCompleted);
}

TEST_F(ChaseTest, LinearDepthCapIsABudgetExit) {
  // Chain R0 -> R1 -> R2 -> R3 from R0(a): the goal R3(a) first holds at
  // depth 3. A run capped at depth 1 or 2 has facts left to expand, so it
  // must report the depth budget, not a terminated chase.
  std::vector<RelationId> chain;
  for (int i = 0; i < 4; ++i) {
    chain.push_back(*universe_.AddRelation("R" + std::to_string(i), 1));
  }
  ConstraintSet ids;
  for (int i = 0; i < 3; ++i) {
    ids.tgds.emplace_back(std::vector<Atom>{Atom(chain[i], {x_})},
                          std::vector<Atom>{Atom(chain[i + 1], {x_})});
  }
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(chain[0], {a_})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(chain[3], {a_})});
  auto check = [&](const ConjunctiveQuery& qp, uint64_t depth,
                   bool prune = true) {
    ChaseOptions options;
    options.max_rounds = depth;
    options.prune_to_goal = prune;
    return CheckContainment(q, qp, ids, &universe_, options);
  };
  for (uint64_t cap : {1u, 2u}) {
    ContainmentOutcome capped = check(goal, cap);
    EXPECT_EQ(capped.verdict, ContainmentVerdict::kUnknown) << cap;
    EXPECT_EQ(capped.status, ChaseStatus::kBudgetExceeded) << cap;
    EXPECT_EQ(capped.exhausted, ChaseExhausted::kRounds) << cap;
    EXPECT_EQ(capped.rounds, cap);
  }
  ContainmentOutcome full = check(goal, 3);
  EXPECT_EQ(full.verdict, ContainmentVerdict::kContained);
  EXPECT_EQ(full.status, ChaseStatus::kCompleted);
  // Past R3 nothing fires: a run with depth to spare terminates on its own.
  ConjunctiveQuery absent = ConjunctiveQuery::Boolean({Atom(chain[3], {b_})});
  ContainmentOutcome terminated = check(absent, 10, /*prune=*/false);
  EXPECT_EQ(terminated.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(terminated.status, ChaseStatus::kCompleted);
  EXPECT_EQ(terminated.exhausted, ChaseExhausted::kNone);
  EXPECT_EQ(terminated.rounds, 4u);  // the fourth level created nothing
}

TEST_F(ChaseTest, JohnsonKlugBoundPositive) {
  EXPECT_GT(JohnsonKlugDepthBound(0, 0, 0, 0, 0), 0u);
  EXPECT_GE(JohnsonKlugDepthBound(3, 10, 5, 3, 2),
            JohnsonKlugDepthBound(1, 10, 5, 3, 2));
}

// ---- Containment memoization. ----

TEST_F(ChaseTest, ContainmentCacheReplaysVerdict) {
  ClearContainmentCache();
  MetricsRegistry& reg = MetricsRegistry::Default();
  uint64_t hits0 = reg.GetCounter("containment.cache.hits")->value();
  uint64_t misses0 = reg.GetCounter("containment.cache.misses")->value();

  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})});

  ContainmentOutcome first = CheckContainment(q, qp, cs, &universe_);
  EXPECT_EQ(reg.GetCounter("containment.cache.misses")->value(), misses0 + 1);
  EXPECT_EQ(ContainmentCacheSize(), 1u);

  ContainmentOutcome second = CheckContainment(q, qp, cs, &universe_);
  EXPECT_EQ(reg.GetCounter("containment.cache.hits")->value(), hits0 + 1);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.status, first.status);
  EXPECT_EQ(second.rounds, first.rounds);
  EXPECT_EQ(second.facts, first.facts);
  EXPECT_EQ(second.tgd_steps, first.tgd_steps);
  EXPECT_EQ(ContainmentCacheSize(), 1u);
}

TEST_F(ChaseTest, ContainmentCacheKeySeparatesProblems) {
  // A different goal over the same start instance must not collide.
  ClearContainmentCache();
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery good = ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})});
  ConjunctiveQuery bad = ConjunctiveQuery::Boolean({Atom(s_, {a_, b_})});
  EXPECT_EQ(CheckContainment(q, good, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckContainment(q, bad, cs, &universe_).verdict,
            ContainmentVerdict::kNotContained);
  EXPECT_EQ(ContainmentCacheSize(), 2u);
  // Replay both from cache: verdicts unchanged.
  EXPECT_EQ(CheckContainment(q, good, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckContainment(q, bad, cs, &universe_).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(ChaseTest, ContainmentCacheOptOut) {
  ClearContainmentCache();
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})});
  ChaseOptions options;
  options.use_containment_cache = false;
  CheckContainment(q, qp, cs, &universe_, options);
  EXPECT_EQ(ContainmentCacheSize(), 0u);
}

TEST_F(ChaseTest, LinearContainmentCacheReplaysVerdict) {
  ClearContainmentCache();
  MetricsRegistry& reg = MetricsRegistry::Default();
  uint64_t hits0 = reg.GetCounter("containment.cache.hits")->value();

  ConstraintSet ids;
  ids.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                        std::vector<Atom>{Atom(s_, {y_, z_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(s_, {x_, y_})});
  ChaseOptions options;
  options.max_rounds = JohnsonKlugDepthBound(1, ids.tgds.size(), 0, 2, 1);

  ContainmentOutcome first = CheckContainment(q, qp, ids, &universe_, options);
  EXPECT_EQ(ContainmentCacheSize(), 1u);
  ContainmentOutcome second =
      CheckContainment(q, qp, ids, &universe_, options);
  EXPECT_EQ(reg.GetCounter("containment.cache.hits")->value(), hits0 + 1);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.status, first.status);
  EXPECT_EQ(second.rounds, first.rounds);
  EXPECT_EQ(second.facts, first.facts);
}

// ---- Weak acyclicity. ----

TEST_F(ChaseTest, WeaklyAcyclicDetection) {
  // T(x) -> R(x,y) alone: acyclic.
  std::vector<Tgd> wa;
  wa.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                  std::vector<Atom>{Atom(r_, {x_, y_})});
  EXPECT_TRUE(IsWeaklyAcyclic(wa));

  // Add R(x,y) -> T(y): cycle through a special edge.
  wa.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                  std::vector<Atom>{Atom(t_, {y_})});
  EXPECT_FALSE(IsWeaklyAcyclic(wa));
}

TEST_F(ChaseTest, FullTgdsAreWeaklyAcyclic) {
  std::vector<Tgd> full;
  full.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                    std::vector<Atom>{Atom(s_, {y_, x_})});
  full.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                    std::vector<Atom>{Atom(r_, {y_, x_})});
  EXPECT_TRUE(IsWeaklyAcyclic(full));
}

TEST_F(ChaseTest, PositionGraphAcyclicity) {
  std::vector<Tgd> chain;
  chain.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                     std::vector<Atom>{Atom(s_, {x_, y_})});
  EXPECT_TRUE(HasAcyclicPositionGraph(chain));
  chain.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                     std::vector<Atom>{Atom(r_, {x_, y_})});
  EXPECT_FALSE(HasAcyclicPositionGraph(chain));
}

}  // namespace
}  // namespace rbda
