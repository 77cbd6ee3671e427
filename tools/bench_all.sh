#!/usr/bin/env bash
# Runs every bench binary's deterministic tables and collects the
# BENCH_JSON lines into BENCH_parallel.json at the repo root (one JSON
# object per line; see EXPERIMENTS.md).
#
# table1_summary times its Table 1 sweep twice — serially and at $JOBS
# workers (the sweep.* fields: jobs, serial_us, parallel_us, speedup,
# parallel_matches_serial) — so the file records both the measured speedup
# and the determinism check on the machine that produced it.
#
# Usage: tools/bench_all.sh [build-dir] [jobs] [out-file]
#   build-dir  defaults to ./build
#   jobs       defaults to $(nproc), exported as RBDA_JOBS
#   out-file   defaults to BENCH_parallel.json at the repo root
#
# Every collected line is validated with rbda_json_validate --lines (when
# that tool is built); a malformed BENCH_JSON line fails the run.
set -euo pipefail

BUILD_DIR="${1:-build}"
JOBS="${2:-$(nproc)}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${3:-$REPO_ROOT/BENCH_parallel.json}"

BENCHES=(
  table1_row1_ids
  table1_row2_bwids
  table1_row3_fds
  table1_row4_uidfds
  table1_row5_eqfree
  table1_row6_fgtgds
  table1_summary
  ablation_naive_vs_simplified
  ablation_elimub
  ablation_proof_plans
)

for bench in "${BENCHES[@]}"; do
  if [ ! -x "$BUILD_DIR/bench/$bench" ]; then
    echo "missing $BUILD_DIR/bench/$bench — build the bench targets first:" >&2
    echo "  cmake --build $BUILD_DIR -j --target ${BENCHES[*]}" >&2
    exit 1
  fi
done

: > "$OUT"
for bench in "${BENCHES[@]}"; do
  echo "== $bench (RBDA_JOBS=$JOBS)" >&2
  RBDA_JOBS="$JOBS" "$BUILD_DIR/bench/$bench" \
    | sed -n 's/^BENCH_JSON //p' >> "$OUT"
done

if [ -x "$BUILD_DIR/tools/rbda_json_validate" ]; then
  "$BUILD_DIR/tools/rbda_json_validate" --lines "$OUT" >&2
else
  echo "warning: $BUILD_DIR/tools/rbda_json_validate not built; skipping" \
       "BENCH_JSON validation" >&2
fi

echo "wrote $(wc -l < "$OUT") bench records to $OUT" >&2

# Multi-tenant workload replay (docs/WORKLOADS.md): one BENCH_JSON record
# carrying the full SLO account — per-tenant and global quantiles, error
# budget, degraded-vs-failed tallies. The record is deterministic modulo
# the wall-time fields (wall_us, requests_per_sec, peak_rss_bytes) at any
# job count, so BENCH_workload.json diffs cleanly across commits.
WORKLOAD_OUT="$REPO_ROOT/BENCH_workload.json"
if [ -x "$BUILD_DIR/tools/rbda_workload" ]; then
  echo "== rbda_workload (--jobs=$JOBS)" >&2
  "$BUILD_DIR/tools/rbda_workload" --seed=1 --tenants=8 --requests=100000 \
    --deadline-us=15000 --latency-slo-us=10000 --jobs="$JOBS" \
    | sed -n 's/^BENCH_JSON //p' > "$WORKLOAD_OUT"
  if [ -x "$BUILD_DIR/tools/rbda_json_validate" ]; then
    "$BUILD_DIR/tools/rbda_json_validate" --lines "$WORKLOAD_OUT" >&2
  fi
  echo "wrote workload SLO record to $WORKLOAD_OUT" >&2
else
  echo "warning: $BUILD_DIR/tools/rbda_workload not built; skipping" \
       "BENCH_workload.json" >&2
fi
