// Table 1, row 5 — equality-free FO (here: arbitrary TGDs): choice
// simplifiable (Thm 6.3); answerability undecidable in general (Prop 8.2),
// so the engine is a budgeted proof search that is complete whenever the
// chase terminates.
//
// Reproduced series:
//  * Example 6.1 across bounds — the verdict is bound-independent and the
//    choice-simplified containment problem stays small;
//  * proof-search completeness rate on random TGD schemas at growing round
//    budgets (the undecidable frontier: some instances may time out).
#include "bench_util.h"

namespace rbda {
namespace {

void VerdictTable() {
  std::printf("--- Table 1 row 5: equality-free FO / TGDs (choice, "
              "undecidable in general) ---\n");
  std::printf("Example 6.1 verdicts: %-8s %-14s %-10s\n", "bound", "verdict",
              "Γ TGDs");
  for (uint32_t bound : {1u, 7u, 50u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(Example61Text(bound), &u);
    RBDA_CHECK(doc.ok());
    StatusOr<Decision> d =
        DecideMonotoneAnswerability(doc->schema, doc->queries.at("Q"));
    std::printf("                      %-8u %-14s %-10zu\n", bound,
                ShortVerdict(d), d.ok() ? d->gamma_size : 0);
  }
  std::printf("Expected shape: answerable at every bound, with an identical "
              "choice-simplified containment problem.\n\n");
}

// Random TGD schemas: 3 relations of arity ≤ 2 with 3 IDs plus one
// two-atom-body TGD, and a random query.
bool DecidedWithin(uint64_t seed, size_t budget_rounds) {
  Universe u;
  Rng rng(seed);
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.max_arity = 2;
  options.num_constraints = 3;
  options.num_methods = 2;
  options.prefix = "T" + std::to_string(seed);
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  Term x = u.FreshVariable(), y = u.FreshVariable();
  RelationId r0 = schema.relations()[0];
  RelationId r1 = schema.relations()[1 % schema.relations().size()];
  std::vector<Term> args0, args1;
  for (uint32_t p = 0; p < u.Arity(r0); ++p) args0.push_back(p == 0 ? x : y);
  for (uint32_t p = 0; p < u.Arity(r1); ++p) args1.push_back(x);
  schema.constraints().tgds.emplace_back(
      std::vector<Atom>{Atom(r0, args0), Atom(r1, args1)},
      std::vector<Atom>{Atom(r1, std::vector<Term>(u.Arity(r1), y))});
  ConjunctiveQuery q = GenerateQuery(schema, 1, 2, &rng);
  DecisionOptions d;
  d.chase.max_rounds = budget_rounds;
  StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
  return decision.ok() && decision->complete;
}

void CompletenessTable() {
  constexpr int kSeeds = 50;
  std::printf("Random TGD schemas, seeds 1..%d: decided within the round "
              "budget\n", kSeeds);
  std::printf("%-14s %-10s\n", "round budget", "decided");
  for (size_t budget : {10u, 50u, 200u}) {
    int decided = 0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      if (DecidedWithin(seed, budget)) ++decided;
    }
    std::printf("%-14zu %d/%d\n", budget, decided, kSeeds);
  }
  std::printf("Expected shape: the same share at every budget; the "
              "undecided residue (Prop 8.2) is about 1%% of seeds, so 50 "
              "seeds may show none.\n\n");
}

}  // namespace
}  // namespace rbda

int main() {
  rbda::VerdictTable();
  rbda::CompletenessTable();
  rbda::PrintBenchMetricsJson("table1_row5_eqfree");
  return 0;
}
