// The three workloads and the correctness checks they apply. Each Run*
// function fills `out` and returns 0, or prints why it could not run to
// stderr and returns non-zero.
#ifndef RBDA_PERFBENCH_WORKLOADS_H_
#define RBDA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "core/answerability.h"

namespace perfbench {

int RunDecideCold(const Args& args, Result* out);
int RunServeMix(const Args& args, Result* out);
int RunReplayStorm(const Args& args, Result* out);

// ---- Checks (each returns true when it finds a mismatch). ----

/// decide-cold, known answers: `expected` is 1 (answerable), 0 (not
/// answerable) or -1 (no known answer). Only complete verdicts can be
/// wrong; an incomplete one is reported as undecided instead.
bool KnownAnswerMismatch(int expected, const rbda::Decision& d);

/// decide-cold, Table 1 validation: the original schema and its paper
/// simplification give different complete verdicts.
bool SimplificationDisagrees(const rbda::Decision& original,
                             const rbda::Decision& simplified);

/// decide-cold: a complete "not answerable" from a linear run that stopped
/// at `cap` below its Johnson–Klug bound (depth_reached == cap <
/// depth_bound) is not a decision.
bool CappedNotAnswerable(const rbda::Decision& d, uint64_t cap);

/// serve-mix: an ok decide response whose verdict or completeness differs
/// from the in-process decide of the same document and query.
bool ServeVerdictMismatch(const std::string& verdict, bool complete,
                          const rbda::Decision& reference);

/// serve-mix, cold means cold: the daemon's containment-cache and
/// decision-cache misses must each rise by exactly the cold decides sent.
/// Returns how many decides the counts are off by (0 = cold).
uint64_t ColdMissShortfall(uint64_t cold_sent, uint64_t containment_misses,
                           uint64_t serve_misses);

/// replay-storm: the SLO account of a replay differs from the reference.
bool SloMismatch(const std::string& account, const std::string& reference);

}  // namespace perfbench

#endif  // RBDA_PERFBENCH_WORKLOADS_H_
