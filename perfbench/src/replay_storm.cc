// replay-storm: ReplayWorkload in process over a mixed tenant profile with
// Zipf-skewed, bursty traffic and fault storms, serially (jobs=1). Each
// request is replayed by its own ReplayWorkload call, so its wall time is
// measured alone; the streams are cycled until the window ends. Every
// request's outcome must equal a parallel reference replay of its stream,
// and every stream replayed in full must fold into the reference SLO
// account.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "workload/profile.h"
#include "workload/replay.h"
#include "workload/slo.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace perfbench {

bool SloMismatch(const std::string& account, const std::string& reference) {
  return account != reference;
}

namespace {

// The cost per request depends on which tenants a stream's Zipf draw makes
// hot; with 6 streams of 40k requests, seeds differed by 15% in
// throughput. 24 shorter streams average over four times as many draws.
constexpr size_t kStreams = 24;
constexpr size_t kTenants = 12;
constexpr size_t kRequestsPerStream = 10000;

// FNV-1a over the reference SLO accounts of every stream, recorded for the
// default seed 1 and the second seed 7; other seeds are checked against
// the reference replay alone.
const std::map<uint64_t, uint64_t>& RecordedDigests() {
  static const std::map<uint64_t, uint64_t> digests = {
      {1, 0x635dabf5d5e1d807ULL},
      {7, 0xa55c8fb099c9299fULL},
  };
  return digests;
}

uint64_t Fnv1a(const std::string& text, uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The fault profiles rbda_workload replays with by default: a mildly
// lossy service outside storms, a visibly failing one inside.
rbda::ReplayOptions MakeReplayOptions(uint64_t seed, size_t jobs) {
  rbda::ReplayOptions options;
  options.seed = seed;
  options.jobs = jobs;
  options.baseline.transient_pm = 20;
  options.baseline.truncate_pm = 10;
  options.baseline.latency_us = 30;
  options.storm.transient_pm = 250;
  options.storm.rate_limit_pm = 100;
  options.storm.truncate_pm = 100;
  options.storm.permanent_pm = 20;
  options.storm.latency_us = 200;
  options.storm.retry_after_us = 2000;
  return options;
}

constexpr rbda::ProfileKind kKinds[] = {rbda::ProfileKind::kPaginatedCatalog,
                                        rbda::ProfileKind::kKeyedLookup,
                                        rbda::ProfileKind::kChainCrawl};

// One seeded set of tenants and its traffic. A run replays several
// streams so that its cost does not hinge on which tenant a single Zipf
// draw made hot.
struct Stream {
  uint64_t seed = 0;
  std::vector<rbda::TenantWorkload> tenants;
  std::vector<rbda::Request> requests;
};

struct Inputs {
  std::vector<Stream> streams;
  double generate_us = 0;
  double traffic_us = 0;
};

bool MakeInputs(uint64_t seed, Inputs* in) {
  in->streams.clear();
  in->generate_us = 0;
  in->traffic_us = 0;
  for (size_t k = 0; k < kStreams; ++k) {
    Stream stream;
    stream.seed = seed * kStreams + k;
    double t0 = ThreadCpuUs();
    {
      ScopedSpan span("tenant_gen");
      for (size_t t = 0; t < kTenants; ++t) {
        rbda::ProfileOptions options;
        // Every API shape in equal numbers, so the per-request cost does
        // not hinge on which shapes a seed happens to draw.
        options.kind = kKinds[t % 3];
        options.seed = stream.seed * 1000003ULL + t;
        options.prefix = "T";
        options.prefix += std::to_string(t) + "_";
        options.strict = t % 4 == 3;
        rbda::StatusOr<rbda::TenantWorkload> w =
            rbda::GenerateTenantWorkload(options);
        if (!w.ok()) {
          std::fprintf(stderr, "replay-storm: tenant %zu: %s\n", t,
                       w.status().ToString().c_str());
          return false;
        }
        stream.tenants.push_back(std::move(w).value());
      }
    }
    double t1 = ThreadCpuUs();
    {
      ScopedSpan span("traffic_gen");
      rbda::TrafficOptions traffic;
      traffic.seed = stream.seed;
      traffic.requests = kRequestsPerStream;
      stream.requests = rbda::GenerateTraffic(traffic, stream.tenants);
    }
    in->generate_us += t1 - t0;
    in->traffic_us += ThreadCpuUs() - t1;
    in->streams.push_back(std::move(stream));
  }
  return true;
}

// The parallel replay every timed request is compared with.
struct Reference {
  std::vector<std::vector<rbda::RequestResult>> results;  // per stream
  std::vector<std::string> accounts;                      // SloJson per stream
  rbda::SloTally total;
  uint64_t digest = 0xcbf29ce484222325ULL;
};

bool MakeReference(const Inputs& in, Reference* ref) {
  for (const Stream& stream : in.streams) {
    rbda::StatusOr<rbda::ReplayReport> report = rbda::ReplayWorkload(
        stream.tenants, stream.requests, MakeReplayOptions(stream.seed, 2));
    if (!report.ok()) {
      std::fprintf(stderr, "replay-storm: reference replay: %s\n",
                   report.status().ToString().c_str());
      return false;
    }
    ref->accounts.push_back(rbda::SloJson(report->slo));
    ref->digest = Fnv1a(ref->accounts.back(), ref->digest);
    const rbda::SloTally& g = report->slo.global();
    ref->total.requests += g.requests;
    ref->total.ok += g.ok;
    ref->total.degraded += g.degraded;
    ref->total.failed += g.failed;
    ref->total.deadline_exceeded += g.deadline_exceeded;
    ref->results.push_back(std::move(report->results));
  }
  return true;
}

bool SameOutcome(const rbda::RequestResult& a, const rbda::RequestResult& b) {
  return a.outcome == b.outcome && a.latency_us == b.latency_us &&
         a.answers == b.answers && a.retries == b.retries &&
         a.degraded_accesses == b.degraded_accesses;
}

struct Pass {
  uint64_t requests = 0;
  uint64_t failed = 0;  // requests whose outcome or stream account differed
  double elapsed_s = 0;  // wall time of the pass
  double cpu_s = 0;      // CPU time of the pass
  LatencyHistogram latency_us;  // wall time of each request's replay
  RegistryReading registry;
};

Pass RunPass(const Inputs& in, const Reference& ref, double seconds) {
  Pass pass;
  RegistryReading before = ReadLocalRegistry();
  std::vector<rbda::Request> one(1);
  double start = NowUs();
  double cpu_start = ThreadCpuUs();
  for (size_t k = 0; NowUs() - start < seconds * 1e6; k = (k + 1) % kStreams) {
    const Stream& stream = in.streams[k];
    rbda::ReplayOptions options = MakeReplayOptions(stream.seed, 1);
    rbda::SloAccount account(options.slo, stream.tenants.size());
    ScopedSpan span("replay");
    size_t i = 0;
    for (; i < stream.requests.size(); ++i) {
      if (NowUs() - start >= seconds * 1e6) break;
      one[0] = stream.requests[i];
      double t0 = NowUs();
      rbda::StatusOr<rbda::ReplayReport> report =
          rbda::ReplayWorkload(stream.tenants, one, options);
      pass.latency_us.Record(NowUs() - t0);
      ++pass.requests;
      if (!report.ok() || report->results.size() != 1 ||
          !SameOutcome(report->results[0], ref.results[k][i])) {
        std::fprintf(stderr, "replay-storm: stream %zu request %zu differs\n",
                     k, i);
        ++pass.failed;
        continue;
      }
      account.Record(one[0].tenant, report->results[0].outcome,
                     report->results[0].latency_us);
    }
    if (i == stream.requests.size() &&
        SloMismatch(rbda::SloJson(account), ref.accounts[k])) {
      std::fprintf(stderr, "replay-storm: stream %zu: SLO account differs\n",
                   k);
      pass.failed += stream.requests.size();
    }
  }
  pass.elapsed_s = (NowUs() - start) / 1e6;
  pass.cpu_s = (ThreadCpuUs() - cpu_start) / 1e6;
  pass.failed = std::min(pass.failed, pass.requests);
  pass.registry = Delta(before, ReadLocalRegistry());
  return pass;
}

}  // namespace

int RunReplayStorm(const Args& args, Result* out) {
  Inputs in;
  bool ok = true;
  double setup_s =
      MedianSetupSeconds(15, [&] { ok = ok && MakeInputs(args.seed, &in); });
  if (!ok) return 1;

  // Untimed reference at jobs=2: replays are deterministic at any job
  // count, so the timed serial replay must reproduce it exactly.
  Reference ref;
  if (!MakeReference(in, &ref)) return 1;
  bool recorded_mismatch = false;
  auto recorded = RecordedDigests().find(args.seed);
  if (recorded != RecordedDigests().end() && recorded->second != ref.digest) {
    std::fprintf(stderr,
                 "replay-storm: seed %llu: SLO digest %016llx, recorded "
                 "%016llx\n",
                 static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(ref.digest),
                 static_cast<unsigned long long>(recorded->second));
    recorded_mismatch = true;
  }

  // The traced invocation splits its window between an untraced and a
  // traced pass, so that every invocation takes about --seconds.
  double window_s = args.trace ? args.seconds / 2 : args.seconds;
  ResetPeakRss();
  Pass pass = RunPass(in, ref, window_s);
  double p50 = pass.latency_us.Quantile(0.50);
  double p99 = pass.latency_us.Quantile(0.99);
  const rbda::SloTally& total = ref.total;
  double slo_failed_share =
      Ratio(total.failed + total.deadline_exceeded, total.requests);
  std::printf(
      "replay-storm: %llu requests in %.3f s, %.3f s of CPU time, at "
      "jobs=1; per-request wall time p50 %.3f us, p99 %.3f us over %zu "
      "samples; SLO digest %016llx; SLO failed+deadline share %.4f of %llu\n",
      static_cast<unsigned long long>(pass.requests), pass.elapsed_s,
      pass.cpu_s, p50,
      p99, static_cast<size_t>(pass.latency_us.count()),
      static_cast<unsigned long long>(ref.digest),
      slo_failed_share, static_cast<unsigned long long>(total.requests));

  out->attempted = pass.requests;
  out->failed = recorded_mismatch ? pass.requests : pass.failed;
  out->correct = out->failed == 0;
  if (!args.trace) {
    out->Add("setup_s", setup_s, "s");
    out->Add("throughput_per_s", Ratio(pass.requests, pass.cpu_s), "1/s");
    out->Add("latency_p50_us", p50, "us");
    out->Add("latency_p99_us", p99, "us");
    out->Add("decided_share", Ratio(total.Succeeded(), total.requests),
             "ratio");
    out->Add("peak_rss_mb", PeakRssMb(getpid()), "MB");
    return 0;
  }

  SpanRecorder::Get().Enable(true);
  Inputs traced_in;
  if (!MakeInputs(args.seed, &traced_in)) return 1;
  Pass traced = RunPass(traced_in, ref, window_s);
  SpanRecorder::Get().Enable(false);
  out->attempted += traced.requests;
  out->failed += traced.failed;
  out->correct = out->failed == 0;

  std::map<std::string, double> v;
  AddRegistryLayers(traced.registry, &v);
  v["failed_share"] = Ratio(out->failed, out->attempted);
  v["trace_overhead_share"] =
      OverheadShare(pass.cpu_s * 1e6 / pass.requests,
                    traced.cpu_s * 1e6 / traced.requests);
  v["replay.generate_us"] = traced_in.generate_us;
  v["replay.traffic_us"] = traced_in.traffic_us;
  v["replay.replay_us"] =
      Ratio(traced.latency_us.sum_us(), traced.latency_us.count());
  v["replay.slo_failed_share"] = slo_failed_share;
  AddSpanTotals(&v);
  AddPerLayer(v, out);
  return 0;
}

}  // namespace perfbench
