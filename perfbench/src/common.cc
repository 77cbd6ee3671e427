#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>

#include "obs/json_reader.h"
#include "obs/metrics.h"

namespace perfbench {

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples->size()));
  if (rank == 0) rank = 1;
  return (*samples)[std::min(rank, samples->size()) - 1];
}

double Median(std::vector<double> samples) {
  return Quantile(&samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         samples.size();
}

void LatencyHistogram::Record(double us) {
  ++count_;
  sum_us_ += us;
  size_t bin = us <= 0 ? 0 : static_cast<size_t>(us / kBinUs);
  if (bin < kBins) {
    ++bins_[bin];
  } else {
    overflow_.push_back(us);
  }
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * count_));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t bin = 0; bin < kBins; ++bin) {
    seen += bins_[bin];
    if (seen >= rank) return (bin + 1) * kBinUs;
  }
  std::vector<double> rest = overflow_;
  return perfbench::Quantile(&rest, static_cast<double>(rank - seen) /
                                        static_cast<double>(rest.size()));
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---- SpanRecorder ----

namespace {
std::mutex g_span_mu;
thread_local std::vector<int> t_open;
}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  int parent = t_open.empty() ? -1 : t_open.back();
  double now = NowUs();
  std::lock_guard<std::mutex> lock(g_span_mu);
  spans_.push_back({name, parent, now, now});
  int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  double now = NowUs();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_span_mu);
  spans_[index].end_us = now;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(g_span_mu);
  // Children close before their parent on the same thread, so they never
  // overlap each other: the covered part of a span is the sum of its
  // children's durations.
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    double duration = spans_[i].end_us - spans_[i].start_us;
    ++t.count;
    t.self_us += duration - child_us[i];
  }
  return out;
}

void AddSpanTotals(std::map<std::string, double>* values) {
  for (const auto& [name, t] : SpanRecorder::Get().Summarize()) {
    (*values)["span." + name + ".self_us"] = Ratio(t.self_us, t.count);
  }
}

// ---- Registry readings ----

double RegistryReading::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

RegistryReading ReadLocalRegistry() {
  rbda::MetricsRegistry& r = rbda::MetricsRegistry::Default();
  RegistryReading out;
  for (const auto& [name, v] : r.CounterValues()) out.values[name] = v;
  for (const auto& [name, d] : r.DistributionValues()) {
    out.values[name + ".sum"] = d.sum;
    out.values[name + ".count"] = d.count;
  }
  return out;
}

bool ParseRegistryJson(const std::string& metrics_json, RegistryReading* out) {
  rbda::StatusOr<rbda::JsonValue> parsed = rbda::ParseJson(metrics_json);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const rbda::JsonValue* root = parsed->Find("metrics");
  if (root == nullptr) root = &*parsed;
  const rbda::JsonValue* counters = root->Find("counters");
  const rbda::JsonValue* dists = root->Find("distributions");
  const rbda::JsonValue* gauges = root->Find("gauges");
  if (counters == nullptr || dists == nullptr || gauges == nullptr) {
    return false;
  }
  for (const auto& [name, v] : counters->AsObject()) {
    out->values[name] = v.AsDouble();
  }
  for (const auto& [name, v] : gauges->AsObject()) {
    out->values[name] = v.AsDouble();
  }
  for (const auto& [name, d] : dists->AsObject()) {
    const rbda::JsonValue* q = d.Find("quantiles");
    for (const char* field : {"sum", "count", "p50", "p99"}) {
      const rbda::JsonValue* f = d.Find(field);
      if (f == nullptr && q != nullptr) f = q->Find(field);
      if (f != nullptr) out->values[name + "." + field] = f->AsDouble();
    }
  }
  return true;
}

RegistryReading Delta(const RegistryReading& before,
                      const RegistryReading& after) {
  RegistryReading out;
  for (const auto& [name, v] : after.values) {
    out.values[name] = v - before.Get(name);
  }
  return out;
}

void AddRegistryLayers(const RegistryReading& r,
                       std::map<std::string, double>* values) {
  std::map<std::string, double>& v = *values;
  double decides = r.Get("answerability.decide_us.count");
  v["core.simplification_us"] =
      Ratio(r.Get("answerability.simplification_us.sum"), decides);
  v["core.reduction_us"] =
      Ratio(r.Get("answerability.reduction_us.sum"), decides);
  v["containment.miss_us"] = Ratio(r.Get("containment.check_us.miss.sum"),
                                   r.Get("containment.check_us.miss.count"));
  v["containment.hit_us"] = Ratio(r.Get("containment.check_us.hit.sum"),
                                  r.Get("containment.check_us.hit.count"));
  double facts = r.Get("chase.facts_created");
  v["chase.facts_created"] = facts;
  v["chase.facts_per_s"] =
      Ratio(facts, r.Get("containment.check_us.sum") / 1e6);
  v["containment.activeness_per_fact"] =
      Ratio(r.Get("containment.activeness_checks"), facts);
  v["containment.linear.depth_sum"] = r.Get("containment.linear.depth.sum");
  double hits = r.Get("containment.cache.hits");
  double lookups = hits + r.Get("containment.cache.misses");
  v["containment.cache.lookups"] = lookups;
  v["containment.cache.hit_ratio"] = Ratio(hits, lookups);
  v["containment.cache.evictions"] = r.Get("containment.cache.evictions");
  v["prune.prefilter_ratio"] = Ratio(r.Get("containment.prune.prefilter_hits"),
                                     r.Get("containment.prune.checks"));
  v["prune.countermodel_hits"] = r.Get("containment.prune.countermodel_hits");
  v["logic.hom_checks"] = r.Get("containment.hom_checks");
  v["logic.hom_success_ratio"] = Ratio(r.Get("containment.hom_checks.succeeded"),
                                       r.Get("containment.hom_checks"));
  double calls = r.Get("executor.access_calls");
  v["executor.execute_us"] = Ratio(r.Get("executor.execute_us.sum"),
                                   r.Get("executor.execute_us.count"));
  v["executor.access_calls"] = calls;
  v["executor.tuples_fetched"] = r.Get("executor.tuples_fetched");
  v["executor.retry_ratio"] = Ratio(r.Get("executor.retries"), calls);
  v["executor.degraded_accesses"] = r.Get("executor.degraded_accesses");
}

// ---- Result ----

namespace {
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}
}  // namespace

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"trace_overhead_share", "ratio"},
        {"failed_share", "ratio"},
        // Spans recorded around each public call (self time per call).
        {"span.case.self_us", "us"},
        {"span.parse.self_us", "us"},
        {"span.decide.self_us", "us"},
        {"span.send.self_us", "us"},
        {"span.receive.self_us", "us"},
        {"span.tenant_gen.self_us", "us"},
        {"span.traffic_gen.self_us", "us"},
        {"span.replay.self_us", "us"},
        // parser
        {"parser.parse_us", "us"},
        {"parser.us_per_kb", "us/KB"},
        // core: simplification, reduction, linearization, answerability
        {"core.simplification_us", "us"},
        {"core.reduction_us", "us"},
        {"core.gamma_size_mean", "count"},
        {"core.jk_depth_bound_max", "count"},
        {"core.decide_us.ids", "us"},
        {"core.decide_us.bwids", "us"},
        {"core.decide_us.fds", "us"},
        {"core.decide_us.uidfds", "us"},
        {"core.decide_us.chain", "us"},
        {"core.decide_us.tgds", "us"},
        // chase engine
        {"containment.miss_us", "us"},
        {"chase.facts_created", "count"},
        {"chase.facts_per_s", "1/s"},
        {"containment.budget_exits", "count"},
        {"containment.wasted_share", "ratio"},
        {"containment.activeness_per_fact", "ratio"},
        {"containment.linear.depth_sum", "count"},
        // chase cache and relevance
        {"containment.hit_us", "us"},
        {"containment.cache.lookups", "count"},
        {"containment.cache.hit_ratio", "ratio"},
        {"containment.cache.evictions", "count"},
        {"prune.prefilter_ratio", "ratio"},
        {"prune.countermodel_hits", "count"},
        // logic
        {"logic.hom_checks", "count"},
        {"logic.hom_success_ratio", "ratio"},
        // runtime
        {"executor.execute_us", "us"},
        {"executor.access_calls", "count"},
        {"executor.tuples_fetched", "count"},
        {"executor.retry_ratio", "ratio"},
        {"executor.degraded_accesses", "count"},
        // serve
        {"max_ok_rate_per_s", "1/s"},
        {"cold_decide_p99_us", "us"},
        {"warm_decide_p99_us", "us"},
        {"run_p99_us", "us"},
        {"serve.cold_decides", "count"},
        {"serve.containment_misses", "count"},
        {"serve.cache.hit_ratio", "ratio"},
        {"serve.engine_decide_p99_us", "us"},
        {"serve.daemon_decide_p99_us", "us"},
        {"serve.client_overhead_us", "us"},
        {"serve.queue.depth_max", "count"},
        {"serve.generator_late_p99_us", "us"},
    };
    for (int step = 1; step <= 5; ++step) {
      std::string p = "serve.ladder." + std::to_string(step) + ".";
      m->push_back({p + "rate_per_s", "1/s"});
      m->push_back({p + "p99_us", "us"});
      m->push_back({p + "sheds", "count"});
      m->push_back({p + "deadline_in_queue", "count"});
    }
    for (const char* name :
         {"replay.generate_us", "replay.traffic_us", "replay.replay_us"}) {
      m->push_back({name, "us"});
    }
    m->push_back({"replay.slo_failed_share", "ratio"});
    return m;
  }();
  return *metrics;
}

void AddPerLayer(const std::map<std::string, double>& values, Result* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    out->Add(name, it == values.end() ? 0 : it->second, unit);
  }
}

}  // namespace perfbench
