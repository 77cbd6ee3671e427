// Schema mutation operators for the differential fuzzer.
//
// The generator families (runtime/schema_generators.h) produce schemas that
// sit squarely inside one Table 1 fragment; the interesting bugs live at
// fragment *boundaries* (an FD dropped onto an ID schema flips the
// dispatcher from the linear pipeline to the naive reduction; widening a UID
// leaves the UIDs+FDs separability regime). Mutators perturb a generated
// schema — add/drop/perturb a constraint, flip a method's bound, widen an
// ID — so one generator seed exercises several adjacent fragments.
//
// Every mutator is deterministic in (schema, rng state), keeps the schema
// structurally valid (positions within arity, relations declared), and
// reports whether it changed anything so no-op draws can be retried.
#ifndef RBDA_FUZZ_MUTATORS_H_
#define RBDA_FUZZ_MUTATORS_H_

#include "base/rng.h"
#include "runtime/service.h"
#include "schema/service_schema.h"

namespace rbda {

enum class Mutation {
  kAddConstraint,      // a random ID between two relations, or a random FD
  kDropConstraint,     // remove one TGD or FD
  kPerturbConstraint,  // retarget an FD / re-point an ID's head relation
  kFlipBound,          // toggle or re-value a method's result bound
  kWidenId,            // export one more variable through an ID
};

const char* MutationName(Mutation m);

/// Applies `mutation` to `schema` in place. Returns true if the schema
/// changed (false = the mutation was not applicable, e.g. kDropConstraint
/// on a constraint-free schema).
bool ApplyMutation(ServiceSchema* schema, Mutation mutation, Rng* rng);

/// Draws and applies `count` random mutations (retrying inapplicable
/// draws a bounded number of times). Returns how many actually applied.
size_t ApplyRandomMutations(ServiceSchema* schema, size_t count, Rng* rng);

/// Perturbs a FaultPlan in place: re-rolls fault probabilities, latency,
/// retry-after hints, and failure schedules within fuzz-sized ranges, and
/// occasionally plants a per-method override for `schema`'s methods. Used
/// by the fault-injection checker to derive its N seeded fault plans from
/// one base; deterministic in (*plan, schema, rng state).
void MutateFaultPlan(FaultPlan* plan, const ServiceSchema& schema, Rng* rng);

}  // namespace rbda

#endif  // RBDA_FUZZ_MUTATORS_H_
