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
// results, identical certain answers. Swept over three schema families
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
