#include "chase/containment.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "chase/relevance.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace rbda {

namespace {

struct ContainmentMetrics {
  Counter* checks;
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* cache_evictions;
  Distribution* check_us;
  // check_us split by containment-cache outcome; cache-off checks count
  // as misses (they did the full chase either way).
  Distribution* check_hit_us;
  Distribution* check_miss_us;
  // Goal-directed pruning (chase/relevance.h): checks that ran with
  // pruning on, total constraints the relevance analysis dropped, and
  // checks the signature prefilter answered without chasing.
  Counter* prune_checks;
  Counter* prune_constraints;
  Counter* prune_prefilter_hits;
  // Checks answered by the witness-reuse countermodel (relevance.h):
  // a finite model refuting the goal without running the chase.
  Counter* prune_countermodel_hits;
};

const ContainmentMetrics& Metrics() {
  static const ContainmentMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ContainmentMetrics{
        r.GetCounter("containment.checks"),
        r.GetCounter("containment.cache.hits"),
        r.GetCounter("containment.cache.misses"),
        r.GetCounter("containment.cache.evictions"),
        r.GetDistribution("containment.check_us"),
        r.GetDistribution("containment.check_us.hit"),
        r.GetDistribution("containment.check_us.miss"),
        r.GetCounter("containment.prune.checks"),
        r.GetCounter("containment.prune.constraints_pruned"),
        r.GetCounter("containment.prune.prefilter_hits"),
        r.GetCounter("containment.prune.countermodel_hits"),
    };
  }();
  return m;
}

// One containment problem as the pipeline sees it.
struct Problem {
  const Instance& start;
  const std::vector<Atom>& goal;
  const ConstraintSet& sigma;
  const std::vector<CardinalityRule>& rules;
  Universe* universe;
  const ChaseOptions& options;
};

// ---- Containment memoization (see the header comment). ----
//
// A key is a canonical word sequence: the start instance's facts sorted
// (its in-memory order is hash-map dependent), then the goal, constraints,
// and budgets in caller order with length prefixes so adjacent sections
// cannot alias. Variables and nulls are renamed to dense
// ids by first occurrence in that encoding order, so repeated Decide calls
// — whose reductions mint FreshVariable/FreshNull terms at ever-increasing
// ids but with identical structure — canonicalize to the same key.
// (Constants stay rigid: their identity links the instance to the goal and
// to interned accessible-constant facts.) Full keys are compared on
// lookup, so a 64-bit hash collision cannot produce a wrong verdict.

using CacheKey = std::vector<uint64_t>;

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    uint64_t h = 0x243f6a8885a308d3ULL ^ key.size();
    for (uint64_t w : key) {
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
    }
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// Renames variables and nulls to first-occurrence dense ids (kind-tagged
// in the top bits so a variable can never alias a null or a constant).
// Canonical under any order-preserving renaming: sorting the start facts
// by raw term bits yields the same relative order before and after such a
// renaming, so the first-occurrence sequence matches too.
class TermCanonicalizer {
 public:
  uint64_t Encode(Term t) {
    if (t.IsConstant()) return (1ULL << 62) | t.raw();
    uint64_t tag = t.IsVariable() ? (2ULL << 62) : (3ULL << 62);
    auto [it, inserted] = ids_.emplace(t.raw(), next_);
    if (inserted) ++next_;
    return tag | it->second;
  }

 private:
  std::unordered_map<uint64_t, uint64_t> ids_;
  uint64_t next_ = 0;
};

void AppendAtom(const Atom& atom, TermCanonicalizer* canon, CacheKey* key) {
  key->push_back(atom.relation);
  key->push_back(atom.args.size());
  for (const Term& t : atom.args) key->push_back(canon->Encode(t));
}

void AppendAtoms(const std::vector<Atom>& atoms, TermCanonicalizer* canon,
                 CacheKey* key) {
  key->push_back(atoms.size());
  for (const Atom& a : atoms) AppendAtom(a, canon, key);
}

void AppendInstance(const Instance& instance, TermCanonicalizer* canon,
                    CacheKey* key) {
  std::vector<Fact> sorted;
  sorted.reserve(instance.NumFacts());
  instance.ForEachFact([&](FactRef f) { sorted.push_back(Fact(f)); });
  std::sort(sorted.begin(), sorted.end());
  key->push_back(sorted.size());
  for (const Fact& f : sorted) {
    key->push_back(f.relation);
    key->push_back(f.args.size());
    for (const Term& t : f.args) key->push_back(canon->Encode(t));
  }
}

// Exactly the inputs the saturate stage reads.
CacheKey MakeKey(const Problem& p) {
  CacheKey key;
  TermCanonicalizer canon;
  AppendInstance(p.start, &canon, &key);
  AppendAtoms(p.goal, &canon, &key);
  key.push_back(p.sigma.tgds.size());
  for (const Tgd& tgd : p.sigma.tgds) {
    AppendAtoms(tgd.body(), &canon, &key);
    AppendAtoms(tgd.head(), &canon, &key);
  }
  key.push_back(p.sigma.fds.size());
  for (const Fd& fd : p.sigma.fds) {
    key.push_back(fd.relation);
    key.push_back(fd.determiners.size());
    for (uint32_t pos : fd.determiners) key.push_back(pos);
    key.push_back(fd.determined);
  }
  key.push_back(p.rules.size());
  for (const CardinalityRule& rule : p.rules) {
    key.push_back(rule.source_rel);
    key.push_back(rule.input_positions.size());
    for (uint32_t pos : rule.input_positions) key.push_back(pos);
    key.push_back(rule.target_rel);
    key.push_back(rule.bound);
    key.push_back(rule.accessible_rel);
    key.push_back(rule.require_accessible ? 1 : 0);
  }
  // Pruning is derived from (goal, Σ, rules) — all already in the key —
  // but the MODE must still be keyed: a pruned run can be definite where
  // the unpruned run is kUnknown, so the two must not alias.
  const ChaseOptions& o = p.options;
  key.push_back(o.max_rounds);
  key.push_back(o.max_facts);
  key.push_back((o.prune_to_goal ? 1u : 0u) |
                (o.inject_overprune_for_testing ? 2u : 0u) |
                (o.use_semi_naive ? 4u : 0u));
  return key;
}

// The memoization cache, sharded by key hash so parallel containment
// calls (fuzz cases, oracle sweeps, bench sweeps under --jobs) do not
// serialize on one mutex. Each shard is an independent mutex-guarded map
// with its own epoch eviction and its own hit/miss/eviction counters
// ("containment.cache.shardNN.*"); the aggregate "containment.cache.*"
// counters keep their historical meaning and are incremented by the
// pipeline, so existing dashboards and tests see identical totals.
class ContainmentCache {
 public:
  static constexpr size_t kShards = 8;

  static ContainmentCache& Get() {
    static ContainmentCache* cache = new ContainmentCache();
    return *cache;
  }

  bool Lookup(const CacheKey& key, ContainmentOutcome* out) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      shard.misses->Increment();
      return false;
    }
    shard.hits->Increment();
    *out = it->second;
    return true;
  }

  void Store(const CacheKey& key, const ContainmentOutcome& outcome) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.size() >= kMaxEntriesPerShard) {
      Metrics().cache_evictions->Increment(shard.map.size());
      shard.evictions->Increment(shard.map.size());
      shard.map.clear();  // epoch eviction: simple and O(1) amortized
    }
    shard.map.emplace(key, outcome);
    shard.size->Set(shard.map.size());
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.size->Set(0);
    }
  }

  size_t Size() {
    size_t total = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

 private:
  // Same total capacity as the pre-sharded cache (256 entries).
  static constexpr size_t kMaxEntriesPerShard = 32;

  struct Shard {
    std::mutex mu;
    std::unordered_map<CacheKey, ContainmentOutcome, CacheKeyHash> map;
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* evictions = nullptr;
    Gauge* size = nullptr;  // current occupancy (of kMaxEntriesPerShard)
  };

  ContainmentCache() {
    MetricsRegistry& r = MetricsRegistry::Default();
    for (size_t i = 0; i < kShards; ++i) {
      std::string prefix =
          "containment.cache.shard" + std::to_string(i) + ".";
      shards_[i].hits = r.GetCounter(prefix + "hits");
      shards_[i].misses = r.GetCounter(prefix + "misses");
      shards_[i].evictions = r.GetCounter(prefix + "evictions");
      shards_[i].size = r.GetGauge(prefix + "size");
    }
  }

  Shard& ShardFor(const CacheKey& key) {
    return shards_[CacheKeyHash{}(key) % kShards];
  }

  Shard shards_[kShards];
};

std::string GoalRelationName(const std::vector<Atom>& goal,
                             const Universe* universe) {
  if (goal.empty() || universe == nullptr) return "";
  return universe->RelationName(goal[0].relation);
}

const char* VerdictName(ContainmentVerdict v) {
  switch (v) {
    case ContainmentVerdict::kContained:
      return "contained";
    case ContainmentVerdict::kNotContained:
      return "not_contained";
    case ContainmentVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

// Saturate stage: the budgeted restricted chase, stopping as soon as the
// goal holds. Any budget exit is kUnknown.
ContainmentOutcome Saturate(const Problem& p, const ChaseOptions& options) {
  bool goal_reached = false;
  ChaseResult chase = RunChaseUntil(p.start, p.sigma, p.goal, p.universe,
                                    &goal_reached, options, p.rules);
  ContainmentOutcome out;
  // An FD conflict means no instance satisfies Q together with Σ, so the
  // containment holds vacuously.
  if (goal_reached || chase.status == ChaseStatus::kFdConflict) {
    out.verdict = ContainmentVerdict::kContained;
  } else if (chase.status == ChaseStatus::kCompleted) {
    out.verdict = ContainmentVerdict::kNotContained;
  }
  out.status = chase.status;
  out.exhausted = chase.exhausted;
  out.rounds = chase.rounds;
  out.facts = chase.instance.NumFacts();
  out.tgd_steps = chase.tgd_steps;
  out.goal_checks = chase.goal_checks;
  return out;
}

// The containment pipeline: key → cache lookup → relevance → signature
// prefilter → countermodel → saturate → verdict and record.
ContainmentOutcome RunPipeline(const Problem& p) {
  const ChaseOptions& options = p.options;
  Metrics().checks->Increment();
  ScopedTimer timer(Metrics().check_us);
  TraceSpan span("containment.check");

  CacheKey key;
  if (options.use_containment_cache) {
    key = MakeKey(p);
    ContainmentOutcome cached;
    if (ContainmentCache::Get().Lookup(key, &cached)) {
      Metrics().cache_hits->Increment();
      uint64_t elapsed = timer.ElapsedMicros();
      Metrics().check_hit_us->Record(elapsed);
      // A hit did no chase work: attribute only the lookup cost.
      QueryProfiler::Default().RecordCheck(ContainmentCheckRecord{
          "", GoalRelationName(p.goal, p.universe), elapsed, 0, 0, 0, 0,
          true});
      if (span.active()) {
        span.AddStr("cache", "hit");
        span.AddStr("verdict", VerdictName(cached.verdict));
      }
      cached.cache_hit = true;
      return cached;
    }
    Metrics().cache_misses->Increment();
  }

  // Goal-directed mode (chase/relevance.h): restrict firing to the
  // constraints backward-reachable from the goal, then try two refutations
  // before chasing at all — the signature prefilter, and when the
  // signature abstraction is too coarse, a finite witness-reuse
  // countermodel of the FULL constraint set (no relevance pruning, so its
  // kNotContained stays sound even under an overprune injection). Both
  // are only sound when no FD can conflict — a conflict would make the
  // containment vacuously kContained, which neither can see.
  RelevanceResult relevance;
  ChaseOptions chase_options = options;
  chase_options.record_trace = false;  // an outcome carries no trace
  uint64_t pruned_constraints = 0;
  bool prefiltered = false;
  bool countermodeled = false;
  if (options.prune_to_goal) {
    relevance = ComputeRelevance(
        {p.goal}, p.sigma.tgds, p.sigma.fds, p.rules,
        p.universe != nullptr ? p.universe->NumRelations() : 0,
        options.inject_overprune_for_testing);
    chase_options.relevant_relations = &relevance.relevant_relations;
    pruned_constraints = relevance.PrunedConstraints();
    Metrics().prune_checks->Increment();
    if (pruned_constraints > 0) {
      Metrics().prune_constraints->Increment(pruned_constraints);
    }
    if (p.sigma.fds.empty()) {
      prefiltered = !SignatureCanReachGoal(p.start, p.goal, p.sigma.tgds,
                                           p.rules,
                                           relevance.relevant_relations);
      countermodeled = !prefiltered &&
                       CounterModelRefutesGoals(p.start, {p.goal},
                                                p.sigma.tgds, p.rules,
                                                p.universe);
    }
  }

  ContainmentOutcome out;
  if (prefiltered || countermodeled) {
    (prefiltered ? Metrics().prune_prefilter_hits
                 : Metrics().prune_countermodel_hits)
        ->Increment();
    out.verdict = ContainmentVerdict::kNotContained;
    out.facts = p.start.NumFacts();
  } else {
    out = Saturate(p, chase_options);
  }

  uint64_t elapsed = timer.ElapsedMicros();
  Metrics().check_miss_us->Record(elapsed);
  QueryProfiler::Default().RecordCheck(ContainmentCheckRecord{
      "", GoalRelationName(p.goal, p.universe), elapsed, out.rounds,
      out.facts, out.goal_checks, pruned_constraints, false});
  if (span.active()) {
    span.AddStr("cache", options.use_containment_cache ? "miss" : "off");
    span.AddStr("verdict", VerdictName(out.verdict));
    span.AddInt("rounds", static_cast<int64_t>(out.rounds));
    span.AddInt("facts", static_cast<int64_t>(out.facts));
    span.AddInt("pruned_constraints",
                static_cast<int64_t>(pruned_constraints));
    if (prefiltered) span.AddStr("prefilter", "hit");
    if (countermodeled) span.AddStr("countermodel", "hit");
  }
  if (options.use_containment_cache) {
    ContainmentCache::Get().Store(key, out);
  }
  return out;
}

}  // namespace

ContainmentOutcome CheckContainment(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  return CheckContainmentFrom(q.CanonicalDatabase(), q_prime.atoms(), sigma,
                              universe, options, cardinality_rules);
}

ContainmentOutcome CheckContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  return RunPipeline(
      Problem{start, goal, sigma, cardinality_rules, universe, options});
}

uint64_t JohnsonKlugDepthBound(size_t goal_atoms, size_t sigma_bounded,
                               size_t sigma_acyclic, size_t arity,
                               size_t width) {
  // Lemma E.6: the path between a match element and its image parent has
  // length at most |Σ1| * m^(w+1); with an acyclic part Σ2 the path gains
  // at most |Σ2| extra edges (Prop 5.6). A tight match of a query with k
  // atoms therefore sits at depth at most k * (that bound). We use
  // max(arity, 2) and max(goal_atoms, 1) so degenerate inputs keep a
  // positive bound.
  uint64_t m = std::max<uint64_t>(arity, 2);
  uint64_t per_hop = 1;
  for (size_t i = 0; i < width + 1; ++i) {
    // Saturating power to avoid overflow on adversarial inputs.
    if (per_hop > (1ULL << 40) / m) {
      per_hop = 1ULL << 40;
      break;
    }
    per_hop *= m;
  }
  uint64_t path = std::max<uint64_t>(sigma_bounded, 1) * per_hop +
                  sigma_acyclic;
  return std::max<uint64_t>(goal_atoms, 1) * path;
}

void ClearContainmentCache() { ContainmentCache::Get().Clear(); }

size_t ContainmentCacheSize() { return ContainmentCache::Get().Size(); }

}  // namespace rbda
