// Shared pieces of the benchmark program: arguments, wall clock, sample
// quantiles, the in-memory span recorder, registry deltas, and the result
// line every workload prints last.
#ifndef RBDA_PERFBENCH_COMMON_H_
#define RBDA_PERFBENCH_COMMON_H_

#include <sys/types.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Microseconds on the steady clock since an arbitrary epoch.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Microseconds of CPU time the calling thread has used. On a virtual
/// machine this leaves out the time the host ran other guests on the
/// thread's CPU (steal time), which wall time counts; on a shared host
/// that time varied by tens of percent between runs. A read is a system
/// call of about 0.5 us.
inline double ThreadCpuUs() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return t.tv_sec * 1e6 + t.tv_nsec / 1e3;
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Latency samples kept as counts in 1 ns bins up to 1 ms (larger ones
/// exactly), so millions of samples take constant memory and the peak
/// resident set measures the program, not the sample store.
class LatencyHistogram {
 public:
  LatencyHistogram() : bins_(kBins, 0) {}
  void Record(double us);
  uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  /// Nearest-rank quantile, to the bin's upper edge.
  double Quantile(double q) const;

 private:
  static constexpr double kBinUs = 0.001;
  static constexpr size_t kBins = 1000000;
  std::vector<uint64_t> bins_;
  std::vector<double> overflow_;
  uint64_t count_ = 0;
  double sum_us_ = 0;
};

/// Peak resident set (VmHWM) of a process in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Restarts this process's peak-resident-set count at its current resident
/// set, so the peak read afterwards covers the timed pass and not the
/// set-up's transient copies of its inputs.
void ResetPeakRss();

/// Median CPU time of the calling thread, in seconds, of `repeats` calls
/// of `setup`.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    double t0 = ThreadCpuUs();
    setup();
    times.push_back((ThreadCpuUs() - t0) / 1e6);
  }
  return Median(times);
}

// ---- Spans recorded by the benchmark around calls into each layer. ----

/// Spans live in memory; nothing is recorded unless the recorder is
/// enabled. Enable() is called only while no other benchmark thread runs,
/// so the flag needs no synchronisation. Each span knows its parent (the
/// innermost open span on the same thread), so self time is the span
/// minus its children.
class SpanRecorder {
 public:
  static SpanRecorder& Get();
  void Enable(bool on) { enabled_ = on; }

  /// Opens a span; returns its index (or -1 when disabled).
  int Begin(const char* name);
  void End(int index);

  struct Totals {
    uint64_t count = 0;
    double self_us = 0;
  };
  /// Per span name: count and self time.
  std::map<std::string, Totals> Summarize() const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start_us;
    double end_us;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(SpanRecorder::Get().Begin(name)) {}
  ~ScopedSpan() { SpanRecorder::Get().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---- Registry counters read at layer boundaries. ----

/// Counter values and distribution sums/counts by name.
struct RegistryReading {
  std::map<std::string, double> values;
  double Get(const std::string& name) const;
};

/// Reads the process's default metrics registry: counters under their
/// name, distributions as "<name>.sum" and "<name>.count".
RegistryReading ReadLocalRegistry();

/// Parses a registry snapshot the same way — the daemon's metrics-op
/// response or the bare snapshot — also keeping "<name>.p50"/".p99" of
/// distributions and gauges by name.
bool ParseRegistryJson(const std::string& metrics_json, RegistryReading* out);

/// after - before, per name.
RegistryReading Delta(const RegistryReading& before,
                      const RegistryReading& after);

// ---- The result every workload prints. ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// The JSON line the benchmark prints last on stdout.
  std::string ToJson() const;
};

/// Every per-layer metric of the benchmark, in print order, with its unit.
/// A workload that does not reach a layer reports 0 for its metrics.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Builds the traced run's metric list: every name of PerLayerMetrics(),
/// taking values from `values` (missing names read 0).
void AddPerLayer(const std::map<std::string, double>& values, Result* out);

/// Share by which the traced pass was slower per operation than the
/// untraced one (negative when it was faster).
inline double OverheadShare(double untraced_us_per_op,
                            double traced_us_per_op) {
  return untraced_us_per_op <= 0 ? 0
                                 : traced_us_per_op / untraced_us_per_op - 1;
}

/// The per-layer values every workload derives the same way from a
/// registry delta: core stage times per decide, containment, chase, cache,
/// relevance, homomorphism and executor figures.
void AddRegistryLayers(const RegistryReading& delta,
                       std::map<std::string, double>* values);

/// Adds each span name's mean self time per call.
void AddSpanTotals(std::map<std::string, double>* values);

/// Ratio helper: 0 when the base is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench

#endif  // RBDA_PERFBENCH_COMMON_H_
