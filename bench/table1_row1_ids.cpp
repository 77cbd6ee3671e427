// Table 1, row 1 — IDs: existence-check simplifiable (Thm 4.2),
// EXPTIME-complete (Thm 5.3).
//
// Reproduced series:
//  * verdicts of the paper's university examples for result bounds
//    k ∈ {1, 5, 100}: identical across k (existence-check simplifiability
//    means the bound value never matters);
//  * the linearization's size as the ID width w grows at fixed schema size:
//    the number of linearized rules (Γ) and the Johnson–Klug depth bound.
//    The m^(w+1) factor of the linearized signature drives the exponential
//    behaviour behind the EXPTIME bound.
#include "bench_util.h"

namespace rbda {
namespace {

void VerdictTable() {
  std::printf("--- Table 1 row 1: IDs (existence-check, EXPTIME) ---\n");
  std::printf("%-10s %-22s %-22s\n", "bound k", "Q1 (all 10k-profs)",
              "Q2 (existence)");
  for (uint32_t bound : {0u, 1u, 5u, 100u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(bound), &u);
    RBDA_CHECK(doc.ok());
    StatusOr<Decision> q1 = DecideMonotoneAnswerability(
        doc->schema, doc->queries.at("Q1"));
    StatusOr<Decision> q2 = DecideMonotoneAnswerability(
        doc->schema, doc->queries.at("Q2"));
    std::printf("%-10s %-22s %-22s\n",
                bound == 0 ? "none" : std::to_string(bound).c_str(),
                ShortVerdict(q1), ShortVerdict(q2));
  }
  std::printf("Expected shape: Q1 answerable only without a bound; Q2 "
              "always answerable; the value of k is irrelevant.\n\n");
}

// Linearization size as ID width grows (relations of arity w..w+1, IDs of
// width w).
void WidthTable() {
  std::printf("ID width w at 3 relations / 3 IDs: linearized rules and "
              "Johnson–Klug depth bound\n");
  std::printf("%-6s %-10s %-12s %-14s\n", "w", "lin. rules", "depth bound",
              "verdict");
  for (size_t width = 1; width <= 4; ++width) {
    Universe u;
    Rng rng(42);
    SchemaFamilyOptions options;
    options.num_relations = 3;
    options.min_arity = static_cast<uint32_t>(width);
    options.max_arity = static_cast<uint32_t>(width + 1);
    options.num_constraints = 3;
    options.num_methods = 3;
    options.max_id_width = width;
    options.prefix = "W" + std::to_string(width);
    ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
    ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);
    DecisionOptions d;
    d.linear_depth_cap = 2000;
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    std::printf("%-6zu %-10zu %-12llu %-14s\n", width,
                decision.ok() ? decision->gamma_size : 0,
                decision.ok()
                    ? static_cast<unsigned long long>(decision->depth_bound)
                    : 0,
                ShortVerdict(decision));
  }
  std::printf("Expected shape: rules and depth bound blow up with w (the "
              "m^(w+1) linearized signature).\n\n");
}

}  // namespace
}  // namespace rbda

int main() {
  rbda::VerdictTable();
  rbda::WidthTable();
  rbda::PrintBenchMetricsJson("table1_row1_ids");
  return 0;
}
