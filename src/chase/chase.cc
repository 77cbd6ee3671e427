#include "chase/chase.h"

#include <algorithm>
#include <map>
#include <set>

#include "chase/relevance.h"
#include "logic/conjunctive_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rbda {

const char* ChaseExhaustedName(ChaseExhausted e) {
  switch (e) {
    case ChaseExhausted::kNone:
      return "none";
    case ChaseExhausted::kRounds:
      return "rounds";
    case ChaseExhausted::kFacts:
      return "facts";
  }
  return "?";
}

namespace {

// Handles into the default registry, resolved once per process. Goal and
// activeness checks count under the containment.* namespace: testing Q'
// (or a TGD head) against the chased instance IS the homomorphism check
// containment is built from (docs/OBSERVABILITY.md).
struct ChaseMetrics {
  Counter* runs;
  Counter* rounds;
  Counter* delta_rounds;
  Counter* delta_full_rounds;
  Counter* triggers_tgd;
  Counter* triggers_egd;
  Counter* triggers_cardinality;
  Counter* facts_created;
  Counter* fd_conflicts;
  Counter* exhausted_rounds;
  Counter* exhausted_facts;
  Counter* hom_checks;
  Counter* hom_checks_ok;
  Counter* activeness_checks;
  Distribution* run_us;
  Distribution* rounds_per_run;
  Distribution* delta_size;
};

const ChaseMetrics& Metrics() {
  static const ChaseMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ChaseMetrics{
        r.GetCounter("chase.runs"),
        r.GetCounter("chase.rounds"),
        r.GetCounter("chase.delta.rounds"),
        r.GetCounter("chase.delta.full_rounds"),
        r.GetCounter("chase.triggers.tgd"),
        r.GetCounter("chase.triggers.egd"),
        r.GetCounter("chase.triggers.cardinality"),
        r.GetCounter("chase.facts_created"),
        r.GetCounter("chase.fd_conflicts"),
        r.GetCounter("chase.exhausted.rounds"),
        r.GetCounter("chase.exhausted.facts"),
        r.GetCounter("containment.hom_checks"),
        r.GetCounter("containment.hom_checks.succeeded"),
        r.GetCounter("containment.activeness_checks"),
        r.GetDistribution("chase.run_us"),
        r.GetDistribution("chase.rounds_per_run"),
        r.GetDistribution("chase.delta.size"),
    };
  }();
  return m;
}

// Preference order for the term kept by an EGD merge: constants survive,
// then variables (frozen query variables), then nulls; ties break on id so
// merges are deterministic.
int KindRank(Term t) {
  switch (t.kind()) {
    case TermKind::kConstant:
      return 0;
    case TermKind::kVariable:
      return 1;
    case TermKind::kNull:
      return 2;
  }
  return 3;
}

class Engine {
 public:
  Engine(const Instance& start, const ConstraintSet& constraints,
         Universe* universe, const ChaseOptions& options,
         const std::vector<CardinalityRule>& rules)
      : constraints_(constraints),
        universe_(universe),
        options_(options),
        rules_(rules) {
    result_.instance = start;
    // Goal-directed pruning (chase/relevance.h) skips constraints in place,
    // so ChaseStep::tgd_index keeps indexing the caller's ConstraintSet.
    const std::vector<bool>* relevant = options_.relevant_relations;
    tgds_.resize(constraints_.tgds.size());
    for (size_t i = 0; i < constraints_.tgds.size(); ++i) {
      const Tgd& tgd = constraints_.tgds[i];
      if (relevant != nullptr && !TgdIsRelevant(tgd, *relevant)) continue;
      TgdInfo& info = tgds_[i];
      info.exported = tgd.ExportedVariables();
      info.existential = tgd.ExistentialVariables();
      // Appended in (TGD, atom) order, the order a pivot visits them.
      info.rest = IndexPivotAtoms(tgd.body(), static_cast<uint32_t>(i),
                                  &PivotAtoms::tgd);
    }
    if (relevant != nullptr) {
      rule_enabled_.reserve(rules_.size());
      for (const CardinalityRule& rule : rules_) {
        rule_enabled_.push_back(CardinalityRuleIsRelevant(rule, *relevant));
      }
    }
  }

  ChaseResult Run(const std::vector<Atom>* goal, bool* goal_reached) {
    Metrics().runs->Increment();
    ScopedTimer run_timer(Metrics().run_us);
    TraceSpan span("chase.run");
    ChaseResult result = RunImpl(goal, goal_reached);
    Metrics().rounds_per_run->Record(result.rounds);
    if (result.status == ChaseStatus::kFdConflict) {
      Metrics().fd_conflicts->Increment();
    }
    if (result.exhausted == ChaseExhausted::kRounds) {
      Metrics().exhausted_rounds->Increment();
    } else if (result.exhausted == ChaseExhausted::kFacts) {
      Metrics().exhausted_facts->Increment();
    }
    if (span.active()) {
      span.AddInt("rounds", static_cast<int64_t>(result.rounds));
      span.AddInt("tgd_steps", static_cast<int64_t>(result.tgd_steps));
      span.AddInt("egd_merges", static_cast<int64_t>(result.egd_merges));
      span.AddInt("facts", static_cast<int64_t>(result.instance.NumFacts()));
      span.AddStr("status",
                  result.status == ChaseStatus::kCompleted   ? "completed"
                  : result.status == ChaseStatus::kFdConflict ? "fd_conflict"
                                                              : "budget");
      span.AddStr("exhausted", ChaseExhaustedName(result.exhausted));
    }
    return result;
  }

 private:
  ChaseResult RunImpl(const std::vector<Atom>* goal, bool* goal_reached) {
    if (goal_reached) *goal_reached = false;
    if (goal != nullptr) SplitGoal(*goal);
    auto reached = [&] {
      if (goal_reached) *goal_reached = true;
      result_.status = ChaseStatus::kCompleted;
      return std::move(result_);
    };

    bool rebuilt = false;
    if (!ApplyFdsToFixpoint(&rebuilt)) {
      result_.status = ChaseStatus::kFdConflict;
      return std::move(result_);
    }
    if (goal != nullptr && GoalHolds(nullptr)) return reached();

    // True when the previous round's new facts (frontier_) are the whole
    // delta: not on round 1, not after an EGD rebuild (see chase.h).
    bool semi = false;
    for (uint64_t round = 1; round <= options_.max_rounds; ++round) {
      result_.rounds = round;
      Metrics().rounds->IncrementCell();
      // The pivots: the previous round's new facts on a delta round (the
      // frontier, already in creation order), every fact otherwise.
      std::vector<FactRef> pivots;
      if (semi) {
        Metrics().delta_rounds->IncrementCell();
        Metrics().delta_size->Record(frontier_.size());
        pivots = std::move(frontier_);
      } else {
        Metrics().delta_full_rounds->IncrementCell();
        pivots.reserve(result_.instance.NumFacts());
        result_.instance.ForEachFact([&](FactRef f) { pivots.push_back(f); });
      }
      frontier_.clear();
      uint64_t fired = FireTgdRound(round, pivots);
      if (!budget_tripped_) {
        fired += FireCardinalityRound(semi ? &pivots : nullptr);
      }
      if (TraceEnabled()) {
        TraceEventRecord(
            "chase.round",
            {{"round", static_cast<int64_t>(round)},
             {"fired", static_cast<int64_t>(fired)},
             {"facts", static_cast<int64_t>(result_.instance.NumFacts())}},
            {{"mode", semi ? "delta" : "full"}});
      }
      if (!ApplyFdsToFixpoint(&rebuilt)) {
        result_.status = ChaseStatus::kFdConflict;
        return std::move(result_);
      }
      semi = options_.use_semi_naive && !rebuilt;
      // A goal reached within budget still wins, even on a truncated
      // round: check before reporting the budget trip.
      if (goal != nullptr && GoalHolds(semi ? &frontier_ : nullptr)) {
        return reached();
      }
      if (budget_tripped_ ||
          result_.instance.NumFacts() > options_.max_facts) {
        result_.status = ChaseStatus::kBudgetExceeded;
        result_.exhausted = ChaseExhausted::kFacts;
        return std::move(result_);
      }
      if (fired == 0) {
        result_.status = ChaseStatus::kCompleted;
        return std::move(result_);
      }
    }
    result_.status = ChaseStatus::kBudgetExceeded;
    result_.exhausted = ChaseExhausted::kRounds;
    return std::move(result_);
  }

 private:
  // Per-TGD data every pivot reads, resolved once per run. A pruned TGD
  // keeps an empty entry and has no pivot atoms.
  struct TgdInfo {
    std::vector<Term> exported;
    std::vector<Term> existential;
    std::vector<std::vector<Atom>> rest;  // rest[k]: the body minus atom k
  };
  // One atom of an atom list that a pivot fact can bind: a TGD body (owner
  // = TGD index) or a goal component (owner = component index).
  struct PivotAtom {
    uint32_t owner;
    uint32_t atom;
  };
  // The pivot atoms over one relation, by kind of owner.
  struct PivotAtoms {
    std::vector<PivotAtom> tgd;
    std::vector<PivotAtom> goal;
  };
  // A variable-connected component of the goal. Facts only accumulate and
  // an EGD merge is a homomorphism, so a matched component stays matched.
  struct GoalComponent {
    std::vector<Atom> atoms;
    std::vector<std::vector<Atom>> rest;  // rest[k]: atoms minus atom k
    bool matched = false;
  };

  // Indexes each atom of `atoms` under its relation in the `kind` list of
  // pivot_atoms_, and returns the lists "atoms minus atom k".
  std::vector<std::vector<Atom>> IndexPivotAtoms(
      const std::vector<Atom>& atoms, uint32_t owner,
      std::vector<PivotAtom> PivotAtoms::*kind) {
    std::vector<std::vector<Atom>> rest;
    for (size_t k = 0; k < atoms.size(); ++k) {
      std::vector<Atom> others = atoms;
      others.erase(others.begin() + static_cast<ptrdiff_t>(k));
      rest.push_back(std::move(others));
      (pivot_atoms_[atoms[k].relation].*kind)
          .push_back({owner, static_cast<uint32_t>(k)});
    }
    return rest;
  }

  // Splits the goal into its variable-connected components (atoms linked
  // by a shared non-constant term), each in goal order, and indexes their
  // atoms for the pivot check.
  void SplitGoal(const std::vector<Atom>& goal) {
    std::vector<size_t> parent(goal.size());
    for (size_t i = 0; i < goal.size(); ++i) parent[i] = i;
    auto find = [&](size_t i) {
      while (parent[i] != i) i = parent[i] = parent[parent[i]];
      return i;
    };
    std::unordered_map<Term, size_t, TermHash> first_atom;
    for (size_t i = 0; i < goal.size(); ++i) {
      for (Term t : goal[i].args) {
        if (t.IsConstant()) continue;
        auto [it, inserted] = first_atom.emplace(t, i);
        if (!inserted) parent[find(i)] = find(it->second);
      }
    }
    std::vector<size_t> component_of_root(goal.size(), SIZE_MAX);
    for (size_t i = 0; i < goal.size(); ++i) {
      size_t& c = component_of_root[find(i)];
      if (c == SIZE_MAX) {
        c = components_.size();
        components_.emplace_back();
      }
      components_[c].atoms.push_back(goal[i]);
    }
    for (size_t c = 0; c < components_.size(); ++c) {
      components_[c].rest = IndexPivotAtoms(
          components_[c].atoms, static_cast<uint32_t>(c), &PivotAtoms::goal);
    }
  }

  // True when every goal component has matched. Only unmatched components
  // are searched: in full when `delta` is null, otherwise by binding each
  // of their atoms to each delta fact — a component with no match before
  // the delta can only newly match through a delta fact.
  bool GoalHolds(const std::vector<FactRef>* delta) {
    Metrics().hom_checks->IncrementCell();
    ++result_.goal_checks;
    if (delta == nullptr) {
      for (GoalComponent& c : components_) {
        if (!c.matched) {
          c.matched = FindHomomorphism(c.atoms, result_.instance).has_value();
        }
      }
    } else {
      for (FactRef fact : *delta) {
        auto atoms = pivot_atoms_.find(fact.relation());
        if (atoms == pivot_atoms_.end()) continue;
        for (const PivotAtom& pa : atoms->second.goal) {
          GoalComponent& c = components_[pa.owner];
          Substitution bound;
          if (c.matched || !BindToPivot(c.atoms[pa.atom], fact, &bound)) {
            continue;
          }
          const std::vector<Atom>& rest = c.rest[pa.atom];
          c.matched = rest.empty() ||
                      FindHomomorphism(rest, result_.instance, &bound)
                          .has_value();
        }
      }
    }
    for (const GoalComponent& c : components_) {
      if (!c.matched) return false;
    }
    Metrics().hom_checks_ok->IncrementCell();
    return true;
  }

  // Binds the non-constant terms of `atom` to the pivot's arguments;
  // false when the two do not unify.
  static bool BindToPivot(const Atom& atom, FactRef pivot, Substitution* sub) {
    if (atom.args.size() != pivot.arity()) return false;
    for (uint32_t p = 0; p < pivot.arity(); ++p) {
      Term a = atom.args[p];
      Term v = pivot.arg(p);
      if (a.IsConstant()) {
        if (a != v) return false;
        continue;
      }
      auto [it, inserted] = sub->emplace(a, v);
      if (!inserted && it->second != v) return false;
    }
    return true;
  }

  // Fact-major round (see chase.h): for each pivot in creation order, each
  // enabled TGD, and each body atom unifying with the pivot, enumerates
  // the body matches with that atom bound to the pivot and fires the
  // active ones at once. Every trigger is found: the round after its
  // newest fact was created pivots on that fact. Facts created here join
  // frontier_, the next round's pivots. Stops early (budget_tripped_) when
  // a firing pushes the instance past the fact budget. Returns the number
  // of firings.
  uint64_t FireTgdRound(uint64_t round, const std::vector<FactRef>& pivots) {
    uint64_t fired = 0;
    std::vector<Substitution> triggers;
    for (FactRef pivot : pivots) {
      auto atoms = pivot_atoms_.find(pivot.relation());
      if (atoms == pivot_atoms_.end()) continue;
      for (const PivotAtom& pa : atoms->second.tgd) {
        const Tgd& tgd = constraints_.tgds[pa.owner];
        const TgdInfo& info = tgds_[pa.owner];
        Substitution bound;
        if (!BindToPivot(tgd.body()[pa.atom], pivot, &bound)) continue;
        // Materialize the matches first: firing mutates the instance the
        // enumeration walks over. Deduplicate them by their restriction to
        // exported variables (two body matches with the same exported
        // image need only one head witness).
        triggers.clear();
        const std::vector<Atom>& rest = info.rest[pa.atom];
        if (rest.empty()) {
          triggers.push_back(std::move(bound));
        } else {
          std::set<std::vector<Term>> seen;
          ForEachHomomorphism(
              rest, result_.instance, &bound, [&](const Substitution& sub) {
                std::vector<Term> key;
                key.reserve(info.exported.size());
                for (Term x : info.exported) key.push_back(ApplyToTerm(sub, x));
                if (seen.insert(std::move(key)).second) {
                  triggers.push_back(sub);
                }
                return true;
              });
        }
        for (const Substitution& trigger : triggers) {
          if (Fire(round, pa.owner, trigger)) ++fired;
          if (budget_tripped_) return fired;
        }
      }
    }
    return fired;
  }

  // Fires `trigger` of TGD `index` if it is active, re-checking activeness
  // against the current instance. Returns true when it fired; sets
  // budget_tripped_ when the firing pushed the instance past the fact
  // budget or overflowed a row-id space.
  bool Fire(uint64_t round, size_t index, const Substitution& trigger) {
    const Tgd& tgd = constraints_.tgds[index];
    const TgdInfo& info = tgds_[index];
    Substitution seed;
    for (Term x : info.exported) seed.emplace(x, ApplyToTerm(trigger, x));
    Metrics().activeness_checks->IncrementCell();
    if (FindHomomorphism(tgd.head(), result_.instance, &seed).has_value()) {
      return false;  // not active: head witness already exists
    }
    // Extend the exported bindings with fresh nulls for the existential
    // variables and add the head facts.
    Substitution extension = std::move(seed);
    for (Term y : info.existential) {
      extension.emplace(y, universe_->FreshNull());
    }
    std::vector<Fact> added;
    for (const Atom& h : tgd.head()) {
      Fact fact = ApplyToAtom(extension, h);
      // A row-id-cap overflow degrades like a fact-budget trip (the caller
      // sees kBudgetExceeded/kFacts) instead of aborting the process.
      bool inserted = false;
      if (!result_.instance.TryAddFact(fact, &inserted).ok()) {
        budget_tripped_ = true;
        return false;
      }
      if (!inserted) continue;
      frontier_.push_back(LastFactOf(fact.relation));
      // The store packs the terms in place, so the spent Fact moves into
      // the trace instead of being copied.
      added.push_back(std::move(fact));
    }
    ++result_.tgd_steps;
    Metrics().triggers_tgd->IncrementCell();
    Metrics().facts_created->IncrementCell(added.size());
    if (options_.record_trace) {
      // Record the full body homomorphism plus the fresh witnesses so
      // consumers (plan extraction) can reconstruct both the trigger facts
      // and the created facts.
      Substitution full = trigger;
      for (const auto& [var, value] : extension) full.emplace(var, value);
      result_.trace.push_back(
          ChaseStep{index, std::move(full), std::move(added), round});
    }
    if (result_.instance.NumFacts() > options_.max_facts) {
      budget_tripped_ = true;
    }
    return true;
  }

  // The row just appended to `relation` (stores are append-only).
  FactRef LastFactOf(RelationId relation) const {
    FactRange facts = result_.instance.FactsOf(relation);
    return facts[facts.size() - 1];
  }

  // Fires the naive §3 cardinality-transfer rules: see CardinalityRule.
  // Semi-naive (`pivots` non-null): the delta is the round's pivots plus
  // the facts created so far this round (frontier_). A binding can only
  // newly need witnesses if a delta fact raised its source-match count or
  // newly made one of its values accessible, so all other bindings are
  // skipped — they were satisfied when last processed, and `have` only
  // grows while `j` grows only through new source facts.
  uint64_t FireCardinalityRound(const std::vector<FactRef>* pivots) {
    uint64_t fired = 0;
    for (size_t ri = 0; ri < rules_.size(); ++ri) {
      if (!rule_enabled_.empty() && !rule_enabled_[ri]) continue;  // pruned
      const CardinalityRule& rule = rules_[ri];
      std::set<std::vector<Term>> dirty;  // bindings with new source facts
      TermSet newly_accessible;
      if (pivots != nullptr) {
        auto note = [&](FactRef f) {
          if (f.relation() == rule.source_rel) {
            std::vector<Term> key;
            key.reserve(rule.input_positions.size());
            for (uint32_t p : rule.input_positions) key.push_back(f.arg(p));
            dirty.insert(std::move(key));
          }
          if (rule.require_accessible && f.relation() == rule.accessible_rel) {
            newly_accessible.insert(f.arg(0));
          }
        };
        for (FactRef f : *pivots) note(f);
        for (FactRef f : frontier_) note(f);
        if (dirty.empty() && newly_accessible.empty()) continue;
      }
      // Group source facts by their input-position tuple.
      std::map<std::vector<Term>, std::set<std::vector<Term>>> groups;
      for (FactRef f : result_.instance.FactsOf(rule.source_rel)) {
        std::vector<Term> key;
        key.reserve(rule.input_positions.size());
        for (uint32_t p : rule.input_positions) key.push_back(f.arg(p));
        groups[std::move(key)].insert(
            std::vector<Term>(f.args().begin(), f.args().end()));
      }
      for (const auto& [binding, matches] : groups) {
        if (pivots != nullptr && dirty.count(binding) == 0) {
          bool touched = false;
          for (Term t : binding) {
            if (newly_accessible.count(t) > 0) {
              touched = true;
              break;
            }
          }
          if (!touched) continue;
        }
        // The binding values must all be accessible (unless the rule is
        // unconditional).
        if (rule.require_accessible) {
          bool accessible = true;
          for (Term t : binding) {
            if (!result_.instance.ContainsRow(rule.accessible_rel, {&t, 1})) {
              accessible = false;
              break;
            }
          }
          if (!accessible) continue;
        }
        uint64_t j = std::min<uint64_t>(rule.bound, matches.size());
        // Count distinct target facts matching the binding.
        uint64_t have = 0;
        for (FactRef f : result_.instance.FactsOf(rule.target_rel)) {
          bool match = true;
          for (size_t idx = 0; idx < rule.input_positions.size(); ++idx) {
            if (f.arg(rule.input_positions[idx]) != binding[idx]) {
              match = false;
              break;
            }
          }
          if (match) ++have;
        }
        uint32_t arity = universe_->Arity(rule.target_rel);
        while (have < j) {
          std::vector<Term> args(arity, Term());
          std::vector<bool> is_input(arity, false);
          for (size_t idx = 0; idx < rule.input_positions.size(); ++idx) {
            args[rule.input_positions[idx]] = binding[idx];
            is_input[rule.input_positions[idx]] = true;
          }
          for (uint32_t p = 0; p < arity; ++p) {
            if (!is_input[p]) args[p] = universe_->FreshNull();
          }
          bool inserted = false;
          if (!result_.instance
                   .TryAddRow(rule.target_rel, {args.data(), args.size()},
                              &inserted)
                   .ok()) {
            // Row-id space exhausted: degrade as a fact-budget trip.
            budget_tripped_ = true;
            return fired;
          }
          if (inserted) frontier_.push_back(LastFactOf(rule.target_rel));
          ++have;
          ++fired;
          Metrics().triggers_cardinality->IncrementCell();
          Metrics().facts_created->IncrementCell();
          if (result_.instance.NumFacts() > options_.max_facts) {
            // Stop at the point of violation: a single rule with a large
            // bound must not blow past the fact budget within one round.
            budget_tripped_ = true;
            return fired;
          }
        }
      }
    }
    return fired;
  }

  // Repairs FD violations by merging terms. Returns false on an attempt to
  // merge two distinct constants (the chase fails).
  //
  // Merges are accumulated in a union-find over terms (representative =
  // highest-priority member, see KindRank) and the instance is rewritten
  // once at the end, instead of rebuilding it after every single merge and
  // restarting the scan — the old behaviour was quadratic in the length of
  // merge chains. Scans repeat, resolving terms through the union-find,
  // until a full pass over all FDs finds no new merge; that final clean
  // pass certifies the fixpoint. *rebuilt reports whether a merge rewrote
  // the instance (which invalidates frontier_).
  bool ApplyFdsToFixpoint(bool* rebuilt) {
    *rebuilt = false;
    if (constraints_.fds.empty()) return true;
    std::unordered_map<Term, Term, TermHash> parent;
    auto find = [&](Term t) {
      Term root = t;
      for (auto it = parent.find(root); it != parent.end();
           it = parent.find(root)) {
        root = it->second;
      }
      // Path compression.
      while (t != root) {
        Term next = parent[t];
        parent[t] = root;
        t = next;
      }
      return root;
    };

    uint64_t unions = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Fd& fd : constraints_.fds) {
        std::map<std::vector<Term>, Term> witness;
        for (FactRef f : result_.instance.FactsOf(fd.relation)) {
          std::vector<Term> key;
          key.reserve(fd.determiners.size());
          for (uint32_t p : fd.determiners) key.push_back(find(f.arg(p)));
          Term value = find(f.arg(fd.determined));
          auto [it, inserted] = witness.emplace(std::move(key), value);
          if (inserted) continue;
          Term a = find(it->second);
          Term b = value;
          if (a == b) continue;
          if (a.IsConstant() && b.IsConstant()) return false;
          // Keep the higher-priority term as the representative.
          if (std::make_pair(KindRank(a), a.id()) >
              std::make_pair(KindRank(b), b.id())) {
            std::swap(a, b);
          }
          parent[b] = a;
          it->second = a;
          ++unions;
          ++result_.egd_merges;
          Metrics().triggers_egd->IncrementCell();
          changed = true;
        }
      }
    }
    if (unions > 0) {
      std::unordered_map<Term, Term, TermHash> mapping;
      mapping.reserve(parent.size());
      for (const auto& [term, unused] : parent) {
        mapping.emplace(term, find(term));
      }
      result_.instance.ReplaceTerms(mapping);
      *rebuilt = true;
    }
    return true;
  }

  const ConstraintSet& constraints_;
  Universe* universe_;
  const ChaseOptions& options_;
  const std::vector<CardinalityRule>& rules_;
  ChaseResult result_;
  // Indexed like constraints_.tgds; see ctor.
  std::vector<TgdInfo> tgds_;
  // The enabled TGD body atoms and the goal component atoms over each
  // relation, in (owner, atom) order.
  std::unordered_map<RelationId, PivotAtoms> pivot_atoms_;
  // The goal's variable-connected components (RunChaseUntil only).
  std::vector<GoalComponent> components_;
  // Per-index relevance filter for rules_ (empty = fire everything).
  std::vector<bool> rule_enabled_;
  // Facts created in the current round, in creation order: the delta the
  // goal check and the next round pivot on, unless an EGD rebuild
  // invalidates them.
  std::vector<FactRef> frontier_;
  // Set by the firing helpers when a firing pushed the instance past
  // options_.max_facts; RunImpl then stops with exhausted = kFacts.
  bool budget_tripped_ = false;
};

}  // namespace

ChaseResult RunChase(const Instance& start, const ConstraintSet& constraints,
                     Universe* universe, const ChaseOptions& options,
                     const std::vector<CardinalityRule>& cardinality_rules) {
  Engine engine(start, constraints, universe, options, cardinality_rules);
  return engine.Run(nullptr, nullptr);
}

ChaseResult RunChaseUntil(
    const Instance& start, const ConstraintSet& constraints,
    const std::vector<Atom>& goal_atoms, Universe* universe,
    bool* goal_reached, const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  Engine engine(start, constraints, universe, options, cardinality_rules);
  return engine.Run(&goal_atoms, goal_reached);
}

}  // namespace rbda
