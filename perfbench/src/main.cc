// rbda_perfbench — the benchmark program.
//
//   rbda_perfbench --workload <decide-cold|serve-mix|replay-storm>
//                  --seed <n> --seconds <s> --trace <0|1>
//   rbda_perfbench --selftest
//
// Prints human-readable lines, then, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// --selftest feeds every correctness check a matching and a mismatching
// input and exits non-zero unless each check fires exactly on the latter.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chase/containment.h"
#include "base/rng.h"
#include "runtime/schema_generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rbda_perfbench --workload <decide-cold|serve-mix|"
               "replay-storm> --seed <n> --seconds <s> --trace <0|1>\n"
               "       rbda_perfbench --selftest\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  if (text == nullptr || *text < '0' || *text > '9') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

rbda::Decision MakeDecision(rbda::Answerability v, bool complete) {
  rbda::Decision d;
  d.verdict = v;
  d.complete = complete;
  return d;
}

int SelfTest() {
  using rbda::Answerability;
  rbda::Decision yes = MakeDecision(Answerability::kAnswerable, true);
  rbda::Decision no = MakeDecision(Answerability::kNotAnswerable, true);
  rbda::Decision unknown = MakeDecision(Answerability::kUnknown, false);

  Expect(!KnownAnswerMismatch(1, yes), "known answer: matching verdict passes");
  Expect(KnownAnswerMismatch(1, no), "known answer: wrong verdict fires");
  Expect(KnownAnswerMismatch(0, yes), "known answer: wrong verdict fires (0)");
  Expect(!KnownAnswerMismatch(1, unknown),
         "known answer: incomplete verdict is not a mismatch");
  Expect(!KnownAnswerMismatch(-1, no), "known answer: no expectation passes");

  Expect(!SimplificationDisagrees(yes, yes), "agreement: equal verdicts pass");
  Expect(SimplificationDisagrees(yes, no), "agreement: different verdicts fire");
  Expect(!SimplificationDisagrees(yes, unknown),
         "agreement: an incomplete side is not compared");

  // The depth-cap check on real decides: random ID cases decided with the
  // linear depth capped at 2. A capped run that still claims a complete
  // "not answerable" is what the check must catch; print the first one.
  {
    int found = 0;
    for (uint64_t seed = 1; seed <= 400 && found == 0; ++seed) {
      rbda::Universe u;
      rbda::Rng rng(seed);
      rbda::SchemaFamilyOptions fam;
      fam.num_relations = 3;
      fam.num_constraints = 3;
      fam.num_methods = 3;
      rbda::ServiceSchema schema = rbda::GenerateIdSchema(&u, fam, &rng);
      rbda::ConjunctiveQuery q = rbda::GenerateQuery(schema, 2, 3, &rng);
      rbda::DecisionOptions capped;
      capped.linear_depth_cap = 2;
      rbda::StatusOr<rbda::Decision> d =
          rbda::DecideMonotoneAnswerability(schema, q, capped);
      if (d.ok() && CappedNotAnswerable(*d, 2)) {
        found = 1;
        std::printf("     seed %llu: capped run says not-answerable, "
                    "complete, depth %llu of bound %llu\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(d->depth_reached),
                    static_cast<unsigned long long>(d->depth_bound));
      }
    }
    if (found == 0) {
      std::printf("     no capped ID decide claims a complete verdict\n");
    }
    rbda::ClearContainmentCache();
    rbda::Decision capped = no;
    capped.depth_bound = 10;
    capped.depth_reached = 3;
    Expect(CappedNotAnswerable(capped, 3),
           "depth cap: depth_reached == cap < depth_bound fires");
    capped.depth_reached = 2;
    Expect(!CappedNotAnswerable(capped, 3),
           "depth cap: a run that ended below the cap passes");
    Expect(!CappedNotAnswerable(capped, 10),
           "depth cap: a run allowed its full bound passes");
  }

  Expect(!ServeVerdictMismatch("answerable", true, yes),
         "serve verdict: equal passes");
  Expect(ServeVerdictMismatch("not-answerable", true, yes) ||
             ServeVerdictMismatch("not_answerable", true, yes),
         "serve verdict: different verdict fires");
  Expect(ServeVerdictMismatch(rbda::AnswerabilityName(yes.verdict), false, yes),
         "serve verdict: different completeness fires");

  Expect(ColdMissShortfall(10, 10, 10) == 0, "cold: equal counts pass");
  Expect(ColdMissShortfall(10, 9, 10) == 1,
         "cold: a containment-cache hit fires");
  Expect(ColdMissShortfall(10, 10, 7) == 3,
         "cold: a decision-cache hit fires");

  Expect(!SloMismatch("{\"a\":1}", "{\"a\":1}"), "slo: equal accounts pass");
  Expect(SloMismatch("{\"a\":1}", "{\"a\":2}"), "slo: different accounts fire");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--selftest") return SelfTest();

  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      args.seed = n;
      have[1] = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      args.seconds = static_cast<double>(n);
      have[2] = true;
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      args.trace = n == 1;
      have[3] = true;
    } else {
      return Usage();
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) return Usage();

  Result result;
  int rc = 0;
  if (args.workload == "decide-cold") {
    rc = RunDecideCold(args, &result);
  } else if (args.workload == "serve-mix") {
    rc = RunServeMix(args, &result);
  } else if (args.workload == "replay-storm") {
    rc = RunReplayStorm(args, &result);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
