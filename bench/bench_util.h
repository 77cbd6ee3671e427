// Shared helpers for the Table 1 benchmark binaries.
#ifndef RBDA_BENCH_BENCH_UTIL_H_
#define RBDA_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "base/task_pool.h"
#include "chase/containment.h"
#include "chase/relevance.h"
#include "obs/histogram.h"
#include "core/answerability.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parser/parser.h"
#include "runtime/schema_generators.h"

namespace rbda {

// Accumulates name → value pairs (keys and strings JSON-escaped) and
// prints them as one `BENCH_JSON {...}` line, so every bench binary's
// headline numbers — plus the metrics-registry snapshot — are ingestible
// as a BENCH_*.json trajectory point:
//
//   ./table1_summary | sed -n 's/^BENCH_JSON //p' > BENCH_table1.json
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string_view bench_name) {
    obj_.AddString("bench", bench_name);
  }

  void Add(std::string_view key, uint64_t value) { obj_.AddUint(key, value); }
  void Add(std::string_view key, int value) { obj_.AddInt(key, value); }
  void Add(std::string_view key, double value) { obj_.AddDouble(key, value); }
  void Add(std::string_view key, std::string_view value) {
    obj_.AddString(key, value);
  }

  /// Embeds a pre-rendered JSON value verbatim under `key`.
  void AddRaw(std::string_view key, std::string_view json) {
    obj_.AddRaw(key, json);
  }

  /// Embeds the current default-registry snapshot under "metrics".
  void AddMetricsSnapshot() {
    obj_.AddRaw("metrics", SnapshotToJson(MetricsRegistry::Default()));
  }

  /// Records the process's peak resident set size so BENCH_*.json
  /// trajectories track memory alongside wall time (ru_maxrss is in
  /// kilobytes on Linux).
  void AddPeakRss() {
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      obj_.AddUint("peak_rss_bytes",
                   static_cast<uint64_t>(usage.ru_maxrss) * 1024);
    }
  }

  /// Embeds the profiler's containment-cost summary: the headline tail
  /// quantiles as flat "profile.containment.*" keys (the fields
  /// BENCH_parallel.json trajectories track) plus the full profile —
  /// summary and top-K slowest checks — under "profile".
  void AddProfileSummary() {
    QueryProfileSnapshot snap = QueryProfiler::Default().TakeSnapshot();
    obj_.AddUint("profile.containment.checks", snap.checks);
    obj_.AddUint("profile.containment.p50_us", snap.check_us.Quantile(0.50));
    obj_.AddUint("profile.containment.p99_us", snap.check_us.Quantile(0.99));
    obj_.AddUint("profile.containment.p999_us",
                 snap.check_us.Quantile(0.999));
    obj_.AddUint("profile.containment.max_us", snap.check_us.max);
    obj_.AddRaw("profile", QueryProfiler::Default().ToJson());
  }

  /// Records a distribution's headline numbers as flat
  /// "<prefix>.{p50,p99,p999,max,mean}_us" keys — the fields BENCH_*.json
  /// trajectories track for every latency histogram.
  void AddQuantiles(std::string_view prefix, const HistogramSnapshot& h) {
    std::string p(prefix);
    obj_.AddUint(p + ".p50_us", h.Quantile(0.50));
    obj_.AddUint(p + ".p99_us", h.Quantile(0.99));
    obj_.AddUint(p + ".p999_us", h.Quantile(0.999));
    obj_.AddUint(p + ".max_us", h.max);
    obj_.AddUint(p + ".mean_us", h.count == 0 ? 0 : h.sum / h.count);
  }

  std::string ToJson() const { return obj_.ToJson(); }

  /// Prints the `BENCH_JSON {...}` line to stdout.
  void Print() const { std::printf("BENCH_JSON %s\n", ToJson().c_str()); }

 private:
  JsonObjectWriter obj_;
};

// Emits the standard end-of-table metrics block for a bench binary: the
// registry snapshot accumulated while the deterministic table ran (the
// part of the output that is diffable across commits).
inline void PrintBenchMetricsJson(std::string_view bench_name) {
  BenchJsonWriter writer(bench_name);
  writer.AddPeakRss();
  writer.AddProfileSummary();
  writer.AddMetricsSnapshot();
  writer.Print();
}

// The university fixture with a configurable bound on ud (0 = unbounded).
inline std::string UniversityText(uint32_t bound) {
  std::string method = bound == 0
                           ? "method ud on Udirectory inputs()"
                           : "method ud on Udirectory inputs() limit " +
                                 std::to_string(bound);
  return R"(
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
)" + method + R"(
tgd Prof(i, n, s) -> Udirectory(i, a, p)
query Q1() :- Prof(i, n, "10000")
query Q2() :- Udirectory(i, a, p)
)";
}

// The Example 6.1 fixture with a configurable bound on mtS.
inline std::string Example61Text(uint32_t bound) {
  return R"(
relation T(x)
relation S(x)
method mtS on S inputs() limit )" +
         std::to_string(bound) + R"(
method mtT on T inputs(0)
tgd T(y) & S(x) -> T(x)
tgd T(y) -> S(x)
query Q() :- T(y)
)";
}

inline const char* ShortVerdict(const StatusOr<Decision>& d) {
  if (!d.ok()) return "error";
  if (!d->complete) return "unknown";
  return AnswerabilityName(d->verdict);
}

// ---- The timed parallel sweep (docs/PERFORMANCE.md). ----
//
// table1_summary runs its six-row Table 1 sweep twice — serially and at
// the job count from RBDA_JOBS — verifies the two produce the same tallies
// (the determinism contract), and records wall time plus speedup-vs-serial
// in its BENCH_JSON line. The other bench binaries print deterministic
// tables only.

/// Job count for bench binaries: RBDA_JOBS when set, else 1.
inline size_t BenchJobs() { return ResolveJobs(0); }

/// Baseline decide options for bench rows: goal-directed relevance pruning
/// per RBDA_PRUNE (default on). RBDA_PRUNE=0 reruns the same rows full-Σ —
/// the prune ablation docs/PERFORMANCE.md tabulates.
inline DecisionOptions BenchDecideOptions() {
  DecisionOptions options;
  options.chase.prune_to_goal = ResolvePrune(-1);
  return options;
}

/// Runs `sweep(jobs)` serially and at `jobs` workers, timing each run,
/// and records under "sweep.*": the job count, both wall times,
/// speedup-vs-serial, and whether the results matched. Returns the serial
/// result.
///
/// The containment cache is cleared once and prewarmed by an untimed
/// serial pass, so both timed legs run against the same warm memoization
/// state. Clearing between the legs instead (the old behavior) forced
/// every repeated identical check back to a full chase — the decide#19 /
/// decide#35 cache-miss regression the bench profile flagged — and timed
/// the serial leg cold against a parallel leg whose workers race to
/// repopulate the cache, skewing the speedup both ways.
template <typename T>
T TimedParallelSweep(BenchJsonWriter* writer, size_t jobs,
                     const std::function<T(size_t)>& sweep) {
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };

  ClearContainmentCache();
  (void)sweep(1);  // prewarm: populate the containment cache untimed

  Clock::time_point t0 = Clock::now();
  T serial = sweep(1);
  uint64_t serial_us = micros(Clock::now() - t0);

  Clock::time_point t1 = Clock::now();
  T parallel = sweep(jobs);
  uint64_t parallel_us = micros(Clock::now() - t1);

  writer->Add("sweep.jobs", static_cast<uint64_t>(jobs));
  writer->Add("sweep.serial_us", serial_us);
  writer->Add("sweep.parallel_us", parallel_us);
  writer->Add("sweep.speedup", parallel_us == 0
                                   ? 1.0
                                   : static_cast<double>(serial_us) /
                                         static_cast<double>(parallel_us));
  writer->Add("sweep.parallel_matches_serial",
              static_cast<uint64_t>(serial == parallel ? 1 : 0));
  return serial;
}

}  // namespace rbda

#endif  // RBDA_BENCH_BENCH_UTIL_H_
