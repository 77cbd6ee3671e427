// Parameterized property sweeps for the chase engine: soundness (results
// satisfy the constraints), universality (results embed into every model
// extending the start instance), and semi-naive/naive equivalence.
#include "chase/certain_answers.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "runtime/generators.h"
#include "runtime/schema_generators.h"

namespace rbda {
namespace {

class ChaseSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseSoundness, CompletedChasesSatisfyConstraints) {
  Rng rng(GetParam() * 7 + 5);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.max_arity = 3;
  options.num_constraints = 3;
  options.num_methods = 0;
  options.prefix = "CS" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  Instance start = RandomInstance(&u, schema.relations(), 4, 8, &rng);

  ChaseOptions chase_options;
  chase_options.max_rounds = 200;
  chase_options.max_facts = 20000;
  ChaseResult result =
      RunChase(start, schema.constraints(), &u, chase_options);
  if (result.status != ChaseStatus::kCompleted) return;
  EXPECT_TRUE(schema.constraints().SatisfiedBy(result.instance))
      << schema.ToString();
  EXPECT_TRUE(start.IsSubinstanceOf(result.instance));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseSoundness,
                         ::testing::Range<uint64_t>(1, 31));

class ChaseUniversality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseUniversality, ChaseEmbedsIntoEveryExtension) {
  Rng rng(GetParam() * 11 + 3);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 2;
  options.max_arity = 2;
  options.num_constraints = 2;
  options.num_methods = 0;
  options.prefix = "CU" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  Instance start = RandomInstance(&u, schema.relations(), 3, 5, &rng);

  ChaseOptions chase_options;
  chase_options.max_rounds = 100;
  chase_options.max_facts = 5000;
  ChaseResult chased =
      RunChase(start, schema.constraints(), &u, chase_options);
  if (chased.status != ChaseStatus::kCompleted) return;

  // Any model built from the start plus extra noise must receive a
  // homomorphism from the chase result.
  for (int trial = 0; trial < 3; ++trial) {
    Instance seed = start;
    seed.UnionWith(RandomInstance(&u, schema.relations(), 3, 4, &rng));
    StatusOr<Instance> model =
        CompleteToModel(seed, schema.constraints(), &u, chase_options);
    if (!model.ok()) continue;
    EXPECT_TRUE(InstanceHomomorphismExists(chased.instance, *model))
        << "trial " << trial << "\nschema:\n"
        << schema.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseUniversality,
                         ::testing::Range<uint64_t>(1, 21));

class FdChaseSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdChaseSweep, EgdRepairsAlwaysSatisfyFds) {
  Rng rng(GetParam() * 13 + 1);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 2;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 4;
  options.num_methods = 0;
  options.prefix = "FS" + std::to_string(GetParam());
  ServiceSchema schema = GenerateFdSchema(&u, options, &rng);

  // Mix constants and nulls so merges actually happen.
  Instance start = RandomInstance(&u, schema.relations(), 3, 6, &rng);
  Instance with_nulls;
  start.ForEachFact([&](FactRef f) {
    Fact g(f);
    for (Term& t : g.args) {
      if (rng.Chance(1, 3)) t = u.FreshNull();
    }
    with_nulls.AddFact(std::move(g));
    with_nulls.AddFact(f);
  });

  ChaseResult result = RunChase(with_nulls, schema.constraints(), &u);
  if (result.status == ChaseStatus::kFdConflict) return;  // legal outcome
  ASSERT_EQ(result.status, ChaseStatus::kCompleted);
  for (const Fd& fd : schema.constraints().fds) {
    EXPECT_TRUE(fd.SatisfiedBy(result.instance)) << fd.ToString(u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdChaseSweep,
                         ::testing::Range<uint64_t>(1, 31));

// ---- Semi-naive ≡ naive. ----

// The delta-driven engine must be observationally equivalent to the naive
// re-enumeration engine: same chase status, homomorphically equivalent
// results, identical certain answers, and goal checks that agree with a
// full search of the final instance. Swept over three schema families
// (IDs, FDs, UIDs+FDs) × 67 seeds = 201 generated schemas.
class SemiNaiveEquivalence : public ::testing::TestWithParam<uint64_t> {
 protected:
  void CheckSchema(const ServiceSchema& schema, Universe* u, Rng* rng) {
    Instance start = RandomInstance(u, schema.relations(), 4, 8, rng);

    ChaseOptions naive;
    naive.max_rounds = 60;
    naive.max_facts = 8000;
    naive.use_semi_naive = false;
    ChaseOptions semi = naive;
    semi.use_semi_naive = true;

    ChaseResult naive_result =
        RunChase(start, schema.constraints(), u, naive);
    ChaseResult semi_result = RunChase(start, schema.constraints(), u, semi);

    EXPECT_EQ(naive_result.status, semi_result.status) << schema.ToString();
    if (naive_result.status == ChaseStatus::kCompleted &&
        semi_result.status == ChaseStatus::kCompleted) {
      // Both are universal models over the same start: they must embed
      // into each other (they differ at most in null naming and order).
      EXPECT_TRUE(InstanceHomomorphismExists(naive_result.instance,
                                             semi_result.instance))
          << schema.ToString();
      EXPECT_TRUE(InstanceHomomorphismExists(semi_result.instance,
                                             naive_result.instance))
          << schema.ToString();
      EXPECT_TRUE(schema.constraints().SatisfiedBy(semi_result.instance))
          << schema.ToString();
    }

    // Certain answers are semantically determined, so the engines must
    // agree exactly — including the completeness/inconsistency flags.
    ConjunctiveQuery q = GenerateQuery(schema, 2, 3, rng);
    StatusOr<CertainAnswersResult> ca_naive =
        CertainAnswers(q, start, schema.constraints(), u, naive);
    StatusOr<CertainAnswersResult> ca_semi =
        CertainAnswers(q, start, schema.constraints(), u, semi);
    ASSERT_EQ(ca_naive.ok(), ca_semi.ok()) << schema.ToString();
    if (ca_naive.ok()) {
      EXPECT_EQ(ca_naive->answers, ca_semi->answers) << schema.ToString();
      EXPECT_EQ(ca_naive->complete, ca_semi->complete) << schema.ToString();
      EXPECT_EQ(ca_naive->inconsistent, ca_semi->inconsistent)
          << schema.ToString();
    }

    // The goal check, on a generated query (odd seeds append a one-atom
    // query over fresh variables, so that goal has at least two
    // components) and on facts of the last and of a random firing of a
    // traced chase, with their nulls turned into variables (goals that
    // hold only after some rounds).
    std::vector<Atom> query_goal = GenerateQuery(schema, 2, 3, rng).atoms();
    if (GetParam() % 2 == 1) {
      query_goal.push_back(GenerateQuery(schema, 1, 1, rng).atoms()[0]);
      EXPECT_GE(NumComponents(query_goal), 2u);
    }
    ChaseOptions traced = semi;
    traced.record_trace = true;
    std::vector<ChaseStep> trace =
        RunChase(start, schema.constraints(), u, traced).trace;
    std::vector<Atom> chased_goal;
    Substitution variable_of;
    if (!trace.empty()) {
      for (const ChaseStep* step :
           {&trace.back(), &trace[rng->Below(trace.size())]}) {
        Atom atom = step->added.front();
        for (Term& t : atom.args) {
          if (!t.IsNull()) continue;
          auto [it, inserted] = variable_of.emplace(t, Term());
          if (inserted) it->second = u->FreshVariable();
          t = it->second;
        }
        chased_goal.push_back(std::move(atom));
      }
    }
    CheckGoal(schema, start, query_goal, naive, semi, u);
    CheckGoal(schema, start, chased_goal, naive, semi, u);
  }

  // RunChaseUntil, naive and semi-naive: `goal_reached` agrees with a full
  // search of the final instance, the modes agree when both complete, and
  // a goal reached in round r > 1 is not reached when capped at r − 1.
  static void CheckGoal(const ServiceSchema& schema, const Instance& start,
                        const std::vector<Atom>& goal,
                        const ChaseOptions& naive, const ChaseOptions& semi,
                        Universe* u) {
    bool reached[2] = {false, false};
    ChaseStatus status[2] = {ChaseStatus::kCompleted, ChaseStatus::kCompleted};
    const ChaseOptions* modes[2] = {&naive, &semi};
    for (int m = 0; m < 2; ++m) {
      ChaseResult run = RunChaseUntil(start, schema.constraints(), goal, u,
                                      &reached[m], *modes[m]);
      status[m] = run.status;
      // A failed chase stops before its goal check.
      if (run.status != ChaseStatus::kFdConflict) {
        EXPECT_EQ(reached[m], FindHomomorphism(goal, run.instance).has_value())
            << "mode " << m << "\n" << schema.ToString();
      }
      if (reached[m] && run.rounds > 1) {
        ChaseOptions capped = *modes[m];
        capped.max_rounds = run.rounds - 1;
        bool capped_reached = true;
        ChaseResult capped_run = RunChaseUntil(
            start, schema.constraints(), goal, u, &capped_reached, capped);
        EXPECT_FALSE(capped_reached) << "mode " << m << "\n"
                                     << schema.ToString();
        EXPECT_FALSE(FindHomomorphism(goal, capped_run.instance).has_value())
            << "mode " << m << "\n" << schema.ToString();
      }
    }
    if (status[0] == ChaseStatus::kCompleted &&
        status[1] == ChaseStatus::kCompleted) {
      EXPECT_EQ(reached[0], reached[1]) << schema.ToString();
    }
  }

  // Number of variable-connected components of `atoms`.
  static size_t NumComponents(const std::vector<Atom>& atoms) {
    auto share_variable = [](const Atom& a, const Atom& b) {
      for (Term t : a.args) {
        if (t.IsConstant()) continue;
        for (Term s : b.args) {
          if (s == t) return true;
        }
      }
      return false;
    };
    std::vector<bool> seen(atoms.size(), false);
    size_t components = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (seen[i]) continue;
      ++components;
      seen[i] = true;
      std::vector<size_t> stack{i};
      while (!stack.empty()) {
        size_t k = stack.back();
        stack.pop_back();
        for (size_t j = 0; j < atoms.size(); ++j) {
          if (!seen[j] && share_variable(atoms[k], atoms[j])) {
            seen[j] = true;
            stack.push_back(j);
          }
        }
      }
    }
    return components;
  }
};

TEST_P(SemiNaiveEquivalence, IdSchemas) {
  Rng rng(GetParam() * 17 + 9);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.max_arity = 3;
  options.num_constraints = 3;
  options.num_methods = 0;
  options.prefix = "SNI" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  CheckSchema(schema, &u, &rng);
}

TEST_P(SemiNaiveEquivalence, FdSchemas) {
  Rng rng(GetParam() * 19 + 7);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 2;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 4;
  options.num_methods = 0;
  options.prefix = "SNF" + std::to_string(GetParam());
  ServiceSchema schema = GenerateFdSchema(&u, options, &rng);
  CheckSchema(schema, &u, &rng);
}

TEST_P(SemiNaiveEquivalence, UidFdSchemas) {
  Rng rng(GetParam() * 23 + 11);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 4;
  options.num_methods = 0;
  options.prefix = "SNU" + std::to_string(GetParam());
  ServiceSchema schema = GenerateUidFdSchema(&u, options, &rng);
  CheckSchema(schema, &u, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaiveEquivalence,
                         ::testing::Range<uint64_t>(1, 68));

}  // namespace
}  // namespace rbda
