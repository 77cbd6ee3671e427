// Satellite of the fuzzing harness: the containment memoization cache
// under adversarial keys. The cache keys a canonical encoding of (engine,
// start instance, goal, constraint set, budgets, pruning mode); these
// tests pin down that *structurally near-identical* problems — same shape
// up to argument order, constant-name boundaries, constant-vs-variable
// quoting, or engine — never share a verdict, and that clearing the cache
// mid-run is safe.
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "chase/containment.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace rbda {
namespace {

class ContainmentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearContainmentCache();
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 2);
    t_ = *universe_.AddRelation("T", 1);
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
  }
  void TearDown() override { ClearContainmentCache(); }

  uint64_t Hits() const {
    return MetricsRegistry::Default()
        .GetCounter("containment.cache.hits")
        ->value();
  }

  Universe universe_;
  RelationId r_, s_, t_;
  Term x_, y_;
};

// Goals differing only in argument order must occupy distinct cache
// entries with opposite verdicts — in both probe orders, with the cache
// warm, so a colliding key would replay the wrong verdict.
TEST_F(ContainmentCacheTest, ArgumentOrderNearCollision) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {x_, y_})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a, b})});
  ConjunctiveQuery straight = ConjunctiveQuery::Boolean({Atom(s_, {a, b})});
  ConjunctiveQuery swapped = ConjunctiveQuery::Boolean({Atom(s_, {b, a})});

  for (int round = 0; round < 2; ++round) {  // round 1 answers from cache
    EXPECT_EQ(CheckContainment(q, straight, cs, &universe_).verdict,
              ContainmentVerdict::kContained)
        << "round " << round;
    EXPECT_EQ(CheckContainment(q, swapped, cs, &universe_).verdict,
              ContainmentVerdict::kNotContained)
        << "round " << round;
  }
  EXPECT_EQ(ContainmentCacheSize(), 2u);
}

// Constant names "ab","c" vs "a","bc": a key that concatenated names
// without delimiting would collide. The verdicts differ, so a collision
// is observable.
TEST_F(ContainmentCacheTest, ConstantBoundaryNearCollision) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {x_, y_})});
  Term ab = universe_.Constant("ab");
  Term c = universe_.Constant("c");
  Term a = universe_.Constant("a");
  Term bc = universe_.Constant("bc");
  ConjunctiveQuery q1 = ConjunctiveQuery::Boolean({Atom(r_, {ab, c})});
  ConjunctiveQuery q2 = ConjunctiveQuery::Boolean({Atom(r_, {a, bc})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(s_, {ab, c})});

  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(CheckContainment(q1, goal, cs, &universe_).verdict,
              ContainmentVerdict::kContained)
        << "round " << round;
    EXPECT_EQ(CheckContainment(q2, goal, cs, &universe_).verdict,
              ContainmentVerdict::kNotContained)
        << "round " << round;
  }
  EXPECT_EQ(ContainmentCacheSize(), 2u);
}

// A constant named "x" and a variable named x are different terms; frozen
// query variables must not unify with the like-named constant in the goal.
TEST_F(ContainmentCacheTest, ConstantVersusVariableNearCollision) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(t_, {x_})});
  Term cx = universe_.Constant("x");
  Term cy = universe_.Constant("y");
  ConjunctiveQuery q_const = ConjunctiveQuery::Boolean({Atom(r_, {cx, cy})});
  ConjunctiveQuery q_var = ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(t_, {cx})});

  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(CheckContainment(q_const, goal, cs, &universe_).verdict,
              ContainmentVerdict::kContained)
        << "round " << round;
    EXPECT_EQ(CheckContainment(q_var, goal, cs, &universe_).verdict,
              ContainmentVerdict::kNotContained)
        << "round " << round;
  }
}

// Cross-universe sharing contract: variables and nulls are canonicalized
// (invariant under renaming), while relation ids and constants are encoded
// raw. Two universes that intern relations and constants in the same order
// — exactly what replaying one document into fresh universes produces —
// share entries; anything else is a distinct problem.
TEST_F(ContainmentCacheTest, CrossUniverseStructuralHit) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {x_, y_})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a, b})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(s_, {a, b})});
  EXPECT_EQ(CheckContainment(q, goal, cs, &universe_).verdict,
            ContainmentVerdict::kContained);

  // Fresh universe mirroring the interning sequence of universe_ (three
  // relations, two variables, two constants, in order) under different
  // variable names: relation ids and constant ids coincide, variables are
  // canonicalized away, so the key matches — a legitimate hit.
  Universe same;
  RelationId r2 = *same.AddRelation("R", 2);
  RelationId s2 = *same.AddRelation("S", 2);
  (void)*same.AddRelation("T", 1);
  Term x2 = same.Variable("v0");
  Term y2 = same.Variable("v1");
  Term a2 = same.Constant("a");
  Term b2 = same.Constant("b");
  ConstraintSet cs2;
  cs2.tgds.emplace_back(std::vector<Atom>{Atom(r2, {x2, y2})},
                        std::vector<Atom>{Atom(s2, {x2, y2})});
  ConjunctiveQuery q2 = ConjunctiveQuery::Boolean({Atom(r2, {a2, b2})});
  ConjunctiveQuery goal2 = ConjunctiveQuery::Boolean({Atom(s2, {a2, b2})});

  uint64_t hits_before = Hits();
  EXPECT_EQ(CheckContainment(q2, goal2, cs2, &same).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(Hits(), hits_before + 1)
      << "structurally identical cross-universe problem should hit";

  // Shift the relation ids (extra relation interned first): no hit, the
  // entry count grows instead.
  Universe shifted;
  (void)*shifted.AddRelation("Pad", 3);
  RelationId r3 = *shifted.AddRelation("R", 2);
  RelationId s3 = *shifted.AddRelation("S", 2);
  Term x3 = shifted.Variable("x");
  Term y3 = shifted.Variable("y");
  Term a3 = shifted.Constant("a");
  Term b3 = shifted.Constant("b");
  ConstraintSet cs3;
  cs3.tgds.emplace_back(std::vector<Atom>{Atom(r3, {x3, y3})},
                        std::vector<Atom>{Atom(s3, {x3, y3})});
  ConjunctiveQuery q3 = ConjunctiveQuery::Boolean({Atom(r3, {a3, b3})});
  ConjunctiveQuery goal3 = ConjunctiveQuery::Boolean({Atom(s3, {a3, b3})});
  size_t entries_before = ContainmentCacheSize();
  uint64_t hits_mid = Hits();
  EXPECT_EQ(CheckContainment(q3, goal3, cs3, &shifted).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(Hits(), hits_mid);
  EXPECT_EQ(ContainmentCacheSize(), entries_before + 1);
}

// Clearing mid-run must drop every entry, and re-posing the same problems
// afterwards must rebuild identical verdicts from scratch.
TEST_F(ContainmentCacheTest, ClearMidRunIsSafe) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a, b})});
  ConjunctiveQuery good = ConjunctiveQuery::Boolean({Atom(s_, {b, a})});
  ConjunctiveQuery bad = ConjunctiveQuery::Boolean({Atom(s_, {a, b})});

  EXPECT_EQ(CheckContainment(q, good, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_GT(ContainmentCacheSize(), 0u);

  ClearContainmentCache();  // mid-run: between two related checks
  EXPECT_EQ(ContainmentCacheSize(), 0u);

  EXPECT_EQ(CheckContainment(q, bad, cs, &universe_).verdict,
            ContainmentVerdict::kNotContained);
  EXPECT_EQ(CheckContainment(q, good, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(ContainmentCacheSize(), 2u);
}

// Cached and uncached engines agree (the battery's containment-cache
// checker automates this over random cases; this is the deterministic
// anchor).
TEST_F(ContainmentCacheTest, CachedMatchesUncached) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a, b})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(s_, {b, a})});

  ChaseOptions uncached;
  uncached.use_containment_cache = false;
  ContainmentVerdict plain =
      CheckContainment(q, goal, cs, &universe_, uncached).verdict;
  ContainmentVerdict miss = CheckContainment(q, goal, cs, &universe_).verdict;
  ContainmentVerdict hit = CheckContainment(q, goal, cs, &universe_).verdict;
  EXPECT_EQ(plain, miss);
  EXPECT_EQ(miss, hit);
}

// Regression for the decide#19/#35 cache-miss pair the bench profile
// surfaced: TimedParallelSweep used to ClearContainmentCache between its
// serial and parallel legs, so a check repeated across legs re-chased from
// scratch. Contract now: one clear + one untimed prewarm pass, then both
// timed legs replay identical checks from the warm cache.
TEST_F(ContainmentCacheTest, TimedParallelSweepKeepsCacheWarmAcrossLegs) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {x_, y_})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a, b})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(s_, {a, b})});

  BenchJsonWriter writer("cache-regression");
  uint64_t hits_before = Hits();
  int legs = 0;
  int serial = TimedParallelSweep<int>(
      &writer, /*jobs=*/2, [&](size_t) {
        ++legs;
        return static_cast<int>(
            CheckContainment(q, goal, cs, &universe_).verdict);
      });
  EXPECT_EQ(serial, static_cast<int>(ContainmentVerdict::kContained));
  ASSERT_EQ(legs, 3) << "prewarm + serial + parallel";
  // The prewarm leg misses and populates; the two timed legs must hit.
  EXPECT_EQ(Hits(), hits_before + 2)
      << "a timed sweep leg re-chased a memoized check";
  EXPECT_EQ(ContainmentCacheSize(), 1u);
}

// Pruned and unpruned runs of the same problem are different cache
// problems: goal-directed mode can be definite (the signature prefilter)
// where the budgeted full chase is kUnknown, so sharing an entry would
// replay the wrong answer for one of the two modes.
TEST_F(ContainmentCacheTest, PruneModeKeysDistinctEntries) {
  Term z = universe_.Variable("z");
  ConstraintSet cs;  // cyclic existential R → S → R: the chase never
                     // terminates, and never makes a T fact
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {y_, z})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a, b})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(t_, {x_})});

  ChaseOptions pruned;
  pruned.max_rounds = 4;
  ChaseOptions unpruned = pruned;
  unpruned.prune_to_goal = false;

  // Both orders: whichever mode populates the cache first, the other mode
  // must not be served its verdict.
  EXPECT_EQ(CheckContainment(q, goal, cs, &universe_, pruned).verdict,
            ContainmentVerdict::kNotContained);
  EXPECT_EQ(CheckContainment(q, goal, cs, &universe_, unpruned).verdict,
            ContainmentVerdict::kUnknown);
  ClearContainmentCache();
  EXPECT_EQ(CheckContainment(q, goal, cs, &universe_, unpruned).verdict,
            ContainmentVerdict::kUnknown);
  EXPECT_EQ(CheckContainment(q, goal, cs, &universe_, pruned).verdict,
            ContainmentVerdict::kNotContained);
}

}  // namespace
}  // namespace rbda
