// Ablation D — plan quality: proof-driven plans ([13,14]'s
// plans-from-proofs idea, via backward slicing of the AMonDet chase) vs
// the generic universal saturation plan.
//
// Reproduced shape: the proof-driven plan calls only the methods the proof
// needs, so its execution makes dramatically fewer service calls at equal
// (complete) answers.
#include "bench_util.h"
#include "core/proof_plans.h"
#include "runtime/executor.h"

namespace rbda {
namespace {

struct Setup {
  Universe universe;
  ParsedDocument doc;
  Instance data;

  Setup()
      : doc([this]() {
          StatusOr<ParsedDocument> d =
              ParseDocument(UniversityText(100), &universe);
          RBDA_CHECK(d.ok());
          return std::move(*d);
        }()) {
    RelationId prof, udir;
    RBDA_CHECK(universe.LookupRelation("Prof", &prof));
    RBDA_CHECK(universe.LookupRelation("Udirectory", &udir));
    for (int i = 0; i < 300; ++i) {
      Term id = universe.Constant("id" + std::to_string(i));
      data.AddFact(udir, {id, universe.Constant("a"), universe.Constant("p")});
      if (i % 4 == 0) {
        data.AddFact(prof,
                     {id, universe.Constant("n"), universe.Constant("10000")});
      }
    }
  }
};

void CallCountTable() {
  std::printf("--- Ablation D: proof-driven vs universal plans ---\n");
  Setup setup;
  const ConjunctiveQuery& q2 = setup.doc.queries.at("Q2");

  StatusOr<Plan> proof = ExtractPlanFromProof(setup.doc.schema, q2);
  StatusOr<Plan> universal = SynthesizeUniversalPlan(setup.doc.schema, q2);
  RBDA_CHECK(proof.ok() && universal.ok());

  for (const auto& [label, plan] :
       {std::pair<const char*, const Plan*>{"proof-driven", &*proof},
        {"universal", &*universal}}) {
    auto selector = MakeIdempotent(MakeSelector(SelectionPolicy::kFirstK));
    PlanExecutor exec(setup.doc.schema, setup.data, selector.get());
    StatusOr<Table> out = exec.Execute(*plan);
    RBDA_CHECK(out.ok());
    std::printf("  %-14s commands=%2zu  service calls=%4zu  tuples=%5zu  "
                "answer=%s\n",
                label, plan->commands.size(), exec.stats().accesses,
                exec.stats().tuples_fetched,
                out->empty() ? "false" : "true");
  }
  std::printf("Expected shape: same (complete) answer, far fewer calls for "
              "the proof-driven plan.\n\n");
}

}  // namespace
}  // namespace rbda

int main() {
  rbda::CallCountTable();
  rbda::PrintBenchMetricsJson("ablation_proof_plans");
  return 0;
}
