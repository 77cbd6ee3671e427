// decide-cold: one caller thread decides a seeded population of Table 1
// cases in process, parse included, cycling through the population until
// the window ends; the containment cache is cleared at the start of each
// cycle. Each case is decided on its original schema and on its paper
// simplification (the Table 1 validation pair).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/containment.h"
#include "core/simplification.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "parser/serializer.h"
#include "runtime/schema_generators.h"
#include "workloads.h"

namespace perfbench {

bool KnownAnswerMismatch(int expected, const rbda::Decision& d) {
  if (expected < 0 || !d.complete) return false;
  rbda::Answerability want = expected == 1
                                 ? rbda::Answerability::kAnswerable
                                 : rbda::Answerability::kNotAnswerable;
  return d.verdict != want;
}

bool SimplificationDisagrees(const rbda::Decision& original,
                             const rbda::Decision& simplified) {
  return original.complete && simplified.complete &&
         original.verdict != simplified.verdict;
}

bool CappedNotAnswerable(const rbda::Decision& d, uint64_t cap) {
  return d.complete && d.verdict == rbda::Answerability::kNotAnswerable &&
         cap < d.depth_bound && d.depth_reached >= cap;
}

namespace {

using rbda::ConjunctiveQuery;
using rbda::ServiceSchema;

// One fact budget for both engines (generic chase and linear chase). At
// the library default of 500k facts single generated ID cases run for
// minutes. At 5000 facts a dozen cases of a 10-second window took 0.1-1 s
// each and 44% of the time between them, so the figures hinged on how many
// of them a window reached and on the memory traffic of their chases; at
// this budget the slowest cases take tens of milliseconds and all cases
// over 10 ms take about 30% of the time.
constexpr uint64_t kFactBudget = 1500;

// Cases in the population. One cycle through it takes about 15 seconds at
// the recorded baseline and holds a few hundred decides over 10 ms, so
// the share of slow cases hardly depends on the seed.
constexpr size_t kPopulation = 20000;

constexpr const char* kFamilies[] = {"ids",    "bwids", "fds",
                                     "uidfds", "chain", "tgds"};

struct Case {
  int family = 0;          // index into kFamilies
  std::string original;    // DSL text: schema + query Q
  std::string simplified;  // DSL text: paper simplification + query Q
  int expected = -1;       // known answer, see KnownAnswerMismatch
};

std::string University(uint32_t bound, bool q1) {
  std::string method = bound == 0 ? "method ud on Udirectory inputs()"
                                  : "method ud on Udirectory inputs() limit " +
                                        std::to_string(bound);
  return "relation Prof(id, name, salary)\n"
         "relation Udirectory(id, address, phone)\n"
         "method pr on Prof inputs(0)\n" +
         method +
         "\n"
         "tgd Prof(i, n, s) -> Udirectory(i, a, p)\n" +
         (q1 ? "query Q() :- Prof(i, n, \"10000\")\n"
             : "query Q() :- Udirectory(i, a, p)\n");
}

std::string Example61(uint32_t bound) {
  return "relation T(x)\nrelation S(x)\n"
         "method mtS on S inputs() limit " +
         std::to_string(bound) +
         "\nmethod mtT on T inputs(0)\n"
         "tgd T(y) & S(x) -> T(x)\ntgd T(y) -> S(x)\n"
         "query Q() :- T(y)\n";
}

ConjunctiveQuery Emptiness(const ServiceSchema& schema,
                           rbda::RelationId relation) {
  std::vector<rbda::Term> args;
  rbda::Universe& u = schema.universe();
  for (uint32_t p = 0; p < u.Arity(relation); ++p) {
    args.push_back(u.FreshVariable());
  }
  return ConjunctiveQuery::Boolean({rbda::Atom(relation, std::move(args))});
}

Case Serialize(int family, const ServiceSchema& schema,
               const ServiceSchema& simplified, const ConjunctiveQuery& q,
               int expected) {
  Case c;
  c.family = family;
  c.original = rbda::SerializeDocument(schema, {{"Q", q}});
  c.simplified = rbda::SerializeDocument(simplified, {{"Q", q}});
  c.expected = expected;
  return c;
}

Case MakeCase(rbda::Rng* rng, size_t index) {
  rbda::Universe u;
  rbda::SchemaFamilyOptions fam;
  fam.num_relations = 3 + rng->Below(2);
  fam.max_arity = 3;
  fam.num_constraints = 3 + rng->Below(2);
  fam.num_methods = 3;
  fam.prefix = "C";
  fam.prefix += std::to_string(index) + "_";
  uint64_t draw = rng->Below(100);
  if (draw < 25) {
    ServiceSchema s = rbda::GenerateIdSchema(&u, fam, rng);
    ConjunctiveQuery q = rbda::GenerateQuery(s, 2, 3, rng);
    return Serialize(0, s, rbda::ExistenceCheckSimplification(s), q, -1);
  }
  if (draw < 45) {
    fam.max_id_width = 1;
    ServiceSchema s = rbda::GenerateIdSchema(&u, fam, rng);
    ConjunctiveQuery q = rbda::GenerateQuery(s, 2, 3, rng);
    return Serialize(1, s, rbda::ExistenceCheckSimplification(s), q, -1);
  }
  if (draw < 60) {
    ServiceSchema s = rbda::GenerateFdSchema(&u, fam, rng);
    ConjunctiveQuery q = rbda::GenerateQuery(s, 2, 3, rng);
    return Serialize(2, s, rbda::FdSimplification(s), q, -1);
  }
  if (draw < 75) {
    fam.max_arity = 2;
    ServiceSchema s = rbda::GenerateUidFdSchema(&u, fam, rng);
    ConjunctiveQuery q = rbda::GenerateQuery(s, 2, 2, rng);
    return Serialize(3, s, rbda::ChoiceSimplification(s), q, -1);
  }
  if (draw < 90) {
    // Chain R0 -> ... -> R(n-1): the head query is answerable (existence
    // check through the head method), the tail query is not.
    size_t length = 3 + rng->Below(6);
    size_t bounded_prefix = rng->Below(length + 1);
    uint32_t bound = 1 + static_cast<uint32_t>(rng->Below(5));
    ServiceSchema s = rbda::GenerateChainSchema(&u, length, 2, bounded_prefix,
                                                bound, fam.prefix);
    bool head = rng->Below(2) == 0;
    ConjunctiveQuery q = Emptiness(
        s, head ? s.relations().front() : s.relations().back());
    return Serialize(4, s, rbda::ExistenceCheckSimplification(s), q,
                     head ? 1 : 0);
  }
  // Paper fixtures at several bounds. University (Examples 1.2-1.4): Q1
  // is answerable only without a bound, Q2 always. Example 6.1: Q is
  // answerable at every bound.
  std::string text;
  int expected = 1;
  bool example61 = rng->Below(2) == 0;
  if (example61) {
    text = Example61(1 + static_cast<uint32_t>(rng->Below(50)));
  } else {
    uint32_t bound = static_cast<uint32_t>(rng->Below(4)) * 10;
    bool q1 = rng->Below(2) == 0;
    text = University(bound, q1);
    expected = q1 && bound > 0 ? 0 : 1;
  }
  rbda::StatusOr<rbda::ParsedDocument> doc = rbda::ParseDocument(text, &u);
  if (!doc.ok()) return Case{};
  const ServiceSchema& s = doc->schema;
  ServiceSchema simplified = example61
                                 ? rbda::ChoiceSimplification(s)
                                 : rbda::ExistenceCheckSimplification(s);
  return Serialize(5, s, simplified, doc->queries.at("Q"), expected);
}

std::vector<Case> MakePopulation(uint64_t seed, size_t n) {
  rbda::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<Case> cases;
  cases.reserve(n);
  for (size_t i = 0; i < n; ++i) cases.push_back(MakeCase(&rng, i));
  return cases;
}

rbda::DecisionOptions BudgetedOptions() {
  rbda::DecisionOptions options;
  options.chase.max_facts = kFactBudget;
  options.linear_max_facts = kFactBudget;
  return options;
}

// Everything one pass over the population measured.
struct Pass {
  uint64_t decides = 0;
  uint64_t cycles = 0;  // passes through the population begun
  uint64_t complete = 0;
  uint64_t failed = 0;  // errors and wrong verdicts
  uint64_t wrong = 0;   // wrong verdicts alone
  double elapsed_s = 0;  // wall time of the pass
  double cpu_s = 0;      // CPU time of the pass
  std::vector<double> latency_us;  // per decide, parse included
  // Per-layer figures, gathered from the decisions and the registry.
  double parse_us = 0;
  double parsed_kb = 0;
  double gamma_sum = 0;
  double jk_bound_max = 0;
  double budget_exits = 0;
  double containment_us = 0;
  double wasted_us = 0;
  std::vector<double> family_us[6];
  RegistryReading registry;
};

// Parses and decides one document; records the latency and layer figures.
rbda::StatusOr<rbda::Decision> ParseAndDecide(const std::string& text,
                                              int family, Pass* pass) {
  static rbda::Distribution* containment =
      rbda::MetricsRegistry::Default().GetDistribution(
          "answerability.containment_us");
  double t0 = ThreadCpuUs();
  rbda::Universe u;
  rbda::StatusOr<rbda::ParsedDocument> doc = rbda::Status::Internal("unset");
  {
    ScopedSpan span("parse");
    doc = rbda::ParseDocument(text, &u);
  }
  double t1 = ThreadCpuUs();
  if (!doc.ok()) return doc.status();
  auto q = doc->queries.find("Q");
  if (q == doc->queries.end()) return rbda::Status::Internal("no query Q");
  uint64_t containment_before = containment->sum();
  rbda::StatusOr<rbda::Decision> d = rbda::Status::Internal("unset");
  {
    ScopedSpan span("decide");
    d = rbda::DecideMonotoneAnswerability(doc->schema, q->second,
                                          BudgetedOptions());
  }
  double t2 = ThreadCpuUs();
  double containment_us =
      static_cast<double>(containment->sum() - containment_before);
  ++pass->decides;
  pass->latency_us.push_back(t2 - t0);
  pass->parse_us += t1 - t0;
  pass->parsed_kb += text.size() / 1024.0;
  pass->family_us[family].push_back(t2 - t1);
  pass->containment_us += containment_us;
  if (d.ok()) {
    if (d->complete) {
      ++pass->complete;
    } else {
      pass->wasted_us += containment_us;
    }
    if (d->exhausted != rbda::ChaseExhausted::kNone) ++pass->budget_exits;
    pass->gamma_sum += d->gamma_size;
    pass->jk_bound_max =
        std::max(pass->jk_bound_max, static_cast<double>(d->depth_bound));
  }
  return d;
}

Pass RunPass(const std::vector<Case>& cases, double seconds) {
  Pass pass;
  RegistryReading before = ReadLocalRegistry();
  uint64_t cap = BudgetedOptions().linear_depth_cap;
  double start = NowUs();
  double cpu_start = ThreadCpuUs();
  for (size_t i = 0; NowUs() - start < seconds * 1e6;
       i = (i + 1) % cases.size()) {
    // Every cycle through the population starts cold.
    if (i == 0) {
      rbda::ClearContainmentCache();
      ++pass.cycles;
    }
    const Case& c = cases[i];
    ScopedSpan span("case");
    rbda::StatusOr<rbda::Decision> a =
        ParseAndDecide(c.original, c.family, &pass);
    rbda::StatusOr<rbda::Decision> b =
        ParseAndDecide(c.simplified, c.family, &pass);
    for (const auto* d : {&a, &b}) {
      if (!d->ok()) {
        std::fprintf(stderr, "decide-cold: case %zu: %s\n", i,
                     d->status().ToString().c_str());
        ++pass.failed;
        continue;
      }
      if (KnownAnswerMismatch(c.expected, **d)) {
        std::fprintf(stderr, "decide-cold: case %zu (%s): wrong verdict %s\n",
                     i, kFamilies[c.family],
                     rbda::AnswerabilityName((*d)->verdict));
        ++pass.failed;
        ++pass.wrong;
      }
      if (CappedNotAnswerable(**d, cap)) {
        std::fprintf(stderr,
                     "decide-cold: case %zu: complete verdict from a run "
                     "capped below its JK bound\n",
                     i);
        ++pass.failed;
        ++pass.wrong;
      }
    }
    if (a.ok() && b.ok() && SimplificationDisagrees(*a, *b)) {
      std::fprintf(stderr,
                   "decide-cold: case %zu (%s): original says %s, "
                   "simplification says %s\n",
                   i, kFamilies[c.family], rbda::AnswerabilityName(a->verdict),
                   rbda::AnswerabilityName(b->verdict));
      ++pass.failed;
      ++pass.wrong;
    }
  }
  pass.elapsed_s = (NowUs() - start) / 1e6;
  pass.cpu_s = (ThreadCpuUs() - cpu_start) / 1e6;
  pass.registry = Delta(before, ReadLocalRegistry());
  return pass;
}

double PerOp(const Pass& p) {
  return p.decides == 0 ? 0 : p.cpu_s * 1e6 / p.decides;
}

std::map<std::string, double> LayerValues(const Pass& p) {
  std::map<std::string, double> v;
  AddRegistryLayers(p.registry, &v);
  v["parser.parse_us"] = Ratio(p.parse_us, p.decides);
  v["parser.us_per_kb"] = Ratio(p.parse_us, p.parsed_kb);
  v["core.gamma_size_mean"] = Ratio(p.gamma_sum, p.decides);
  v["core.jk_depth_bound_max"] = p.jk_bound_max;
  for (int f = 0; f < 6; ++f) {
    v[std::string("core.decide_us.") + kFamilies[f]] = Mean(p.family_us[f]);
  }
  v["containment.budget_exits"] = p.budget_exits;
  v["containment.wasted_share"] = Ratio(p.wasted_us, p.containment_us);
  return v;
}

}  // namespace

int RunDecideCold(const Args& args, Result* out) {
  std::vector<Case> cases;
  double setup_s = MedianSetupSeconds(5, [&] {
    cases = MakePopulation(args.seed, kPopulation);
  });

  // The traced invocation splits its window between an untraced and a
  // traced pass, so that every invocation takes about --seconds.
  double window_s = args.trace ? args.seconds / 2 : args.seconds;
  ResetPeakRss();
  Pass pass = RunPass(cases, window_s);
  std::vector<double> lat = pass.latency_us;
  double p50 = Quantile(&lat, 0.50);
  double p99 = Quantile(&lat, 0.99);
  double hits = pass.registry.Get("containment.cache.hits");
  double lookups = hits + pass.registry.Get("containment.cache.misses");
  std::printf(
      "decide-cold: %llu decides in %.3f s, %.3f s of CPU time (fact "
      "budget %llu, %llu "
      "cycles begun through %zu cases); "
      "p50 %.1f us, p99 %.1f us over %zu samples; complete %llu; "
      "failed %llu; containment cache hits %.0f of %.0f lookups\n",
      static_cast<unsigned long long>(pass.decides), pass.elapsed_s,
      pass.cpu_s,
      static_cast<unsigned long long>(kFactBudget),
      static_cast<unsigned long long>(pass.cycles), cases.size(), p50, p99,
      lat.size(),
      static_cast<unsigned long long>(pass.complete),
      static_cast<unsigned long long>(pass.failed), hits, lookups);

  out->attempted = pass.decides;
  out->failed = pass.failed;
  out->correct = pass.wrong == 0;
  if (!args.trace) {
    out->Add("setup_s", setup_s, "s");
    out->Add("throughput_per_s", Ratio(pass.decides, pass.cpu_s), "1/s");
    out->Add("latency_p50_us", p50, "us");
    out->Add("latency_p99_us", p99, "us");
    out->Add("decided_share", Ratio(pass.complete, pass.decides), "ratio");
    out->Add("peak_rss_mb", PeakRssMb(getpid()), "MB");
    return 0;
  }

  // Traced pass over the same population, cold again, with spans on.
  SpanRecorder::Get().Enable(true);
  Pass traced = RunPass(cases, window_s);
  SpanRecorder::Get().Enable(false);
  out->failed += traced.failed;
  out->correct = out->correct && traced.wrong == 0;
  out->attempted += traced.decides;
  std::map<std::string, double> values = LayerValues(traced);
  values["failed_share"] = Ratio(out->failed, out->attempted);
  values["trace_overhead_share"] = OverheadShare(PerOp(pass), PerOp(traced));
  AddSpanTotals(&values);
  AddPerLayer(values, out);
  return 0;
}

}  // namespace perfbench
