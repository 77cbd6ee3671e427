// Table 1, row 2 — bounded-width IDs: existence-check simplifiable,
// NP-complete (Thm 5.4) via linearization (Prop 5.5).
//
// Reproduced series:
//  * decision completeness rates of both engines over random width-1
//    schemas;
//  * both engines on value-shifting cyclic chains, whose restricted chase
//    never terminates. The query is refuted at the relation level: the
//    signature prefilter of goal-directed containment decides it for both
//    engines before any chase round runs.
#include "bench_util.h"

namespace rbda {
namespace {

// A value-shifting cyclic chain: R_i(x,y) -> ∃z R_{i+1}(y,z) and back from
// the tail to the head. Every chase step mints a fresh exported value, so
// the restricted chase never terminates.
ServiceSchema CyclicChain(Universe* u, size_t length, const std::string& pfx) {
  ServiceSchema schema(u);
  std::vector<RelationId> relations;
  for (size_t i = 0; i < length; ++i) {
    relations.push_back(*schema.AddRelation(pfx + "_R" + std::to_string(i), 2));
  }
  for (size_t i = 0; i < length; ++i) {
    Term y = u->FreshVariable();
    std::vector<Term> body{u->FreshVariable(), y};
    std::vector<Term> head{y, u->FreshVariable()};
    schema.constraints().tgds.emplace_back(
        std::vector<Atom>{Atom(relations[i], body)},
        std::vector<Atom>{Atom(relations[(i + 1) % length], head)});
  }
  AccessMethod bounded{pfx + "_m0", relations[0], {}, BoundKind::kResultBound,
                       3};
  RBDA_CHECK(schema.AddMethod(std::move(bounded)).ok());
  for (size_t i = 1; i < length; ++i) {
    AccessMethod lookup{pfx + "_m" + std::to_string(i), relations[i], {0},
                        BoundKind::kNone, 0};
    RBDA_CHECK(schema.AddMethod(std::move(lookup)).ok());
  }
  // An unconstrained side relation with a lookup method: conjoining it to
  // the query yields a NON-answerable instance whose chase is infinite —
  // where a budgeted chase alone must give up.
  RelationId z = *schema.AddRelation(pfx + "_Z", 2);
  AccessMethod zl{pfx + "_mz", z, {0}, BoundKind::kNone, 0};
  RBDA_CHECK(schema.AddMethod(std::move(zl)).ok());
  return schema;
}

// Q := R_tail(a,b) ∧ Z(a,b): the tail atom ignites the infinite cyclic
// chase; the Z atom can never transfer (nothing is accessible), so the
// containment fails.
ConjunctiveQuery CyclicRefutationQuery(const ServiceSchema& schema) {
  Universe& u = schema.universe();
  Term a = u.FreshVariable(), b = u.FreshVariable();
  RelationId tail = schema.relations()[schema.relations().size() - 2];
  RelationId z = schema.relations().back();
  return ConjunctiveQuery::Boolean({Atom(tail, {a, b}), Atom(z, {a, b})});
}

void CompletenessTable() {
  std::printf(
      "--- Table 1 row 2: bounded-width IDs (linearization, NP) ---\n");
  std::printf("Random width-1 ID schemas, 40 seeds: decisions reached\n");
  int lin_complete = 0, gen_complete = 0, agreements = 0, both = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Universe u;
    Rng rng(seed);
    SchemaFamilyOptions options;
    options.num_relations = 3;
    options.max_arity = 3;
    options.num_constraints = 4;
    options.num_methods = 3;
    options.max_id_width = 1;
    options.prefix = "B" + std::to_string(seed);
    ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
    ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);

    DecisionOptions lin;
    lin.linear_depth_cap = 1500;
    StatusOr<Decision> a = DecideMonotoneAnswerability(schema, q, lin);

    DecisionOptions gen;
    gen.use_linearization = false;
    gen.chase.max_rounds = 60;
    gen.chase.max_facts = 20000;
    StatusOr<Decision> b = DecideMonotoneAnswerability(schema, q, gen);

    if (a.ok() && a->complete) ++lin_complete;
    if (b.ok() && b->complete) ++gen_complete;
    if (a.ok() && b.ok() && a->complete && b->complete) {
      ++both;
      if (a->verdict == b->verdict) ++agreements;
    }
  }
  std::printf("  linearized JK engine : %d/40 decided\n", lin_complete);
  std::printf("  generic chase engine : %d/40 decided\n", gen_complete);
  std::printf("  agreement when both decided: %d/%d\n", agreements, both);
  std::printf("Expected shape: both engines decide every width-1 schema "
              "and agree.\n\n");
}

// Both engines on the cyclic chains. "generic rounds" is the number of
// chase rounds the generic engine ran before deciding.
void CyclicChainTable() {
  std::printf("Value-shifting cyclic chains (infinite restricted chase, "
              "non-answerable query)\n");
  std::printf("%-8s %-24s %-24s %-14s\n", "length", "linearized JK engine",
              "generic chase engine", "generic rounds");
  DecisionOptions lin;
  lin.linear_depth_cap = 4000;
  DecisionOptions gen;
  gen.use_linearization = false;
  gen.chase.max_rounds = 40;
  gen.chase.max_facts = 20000;
  for (size_t length = 2; length <= 8; length += 2) {
    auto decide = [length](const DecisionOptions& options,
                           const std::string& pfx) {
      Universe u;
      ServiceSchema schema = CyclicChain(&u, length, pfx);
      return DecideMonotoneAnswerability(schema,
                                         CyclicRefutationQuery(schema),
                                         options);
    };
    StatusOr<Decision> a = decide(lin, "LC" + std::to_string(length));
    StatusOr<Decision> b = decide(gen, "GC" + std::to_string(length));
    std::printf("%-8zu %-24s %-24s %-14llu\n", length, ShortVerdict(a),
                ShortVerdict(b),
                b.ok() ? static_cast<unsigned long long>(b->chase_rounds)
                       : 0);
  }
  std::printf("Expected shape: both engines decide not-answerable at every "
              "length with 0 chase rounds — the signature prefilter refutes "
              "the goal before either chase starts.\n\n");
}

}  // namespace
}  // namespace rbda

int main() {
  rbda::CompletenessTable();
  rbda::CyclicChainTable();
  rbda::PrintBenchMetricsJson("table1_row2_bwids");
  return 0;
}
