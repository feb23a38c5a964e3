#!/usr/bin/env bash
# Regenerate every paper figure (Fig. 3-15 + the replacement-policy
# ablation + the memcached demo sweep) through the one a4bench driver
# (each figure is a registered SweepSpec) and aggregate the per-bench
# JSON results into one BENCH_figures.json perf-trajectory record.
#
# By default the sweep windows are compressed (A4_TEST_DURATION_SCALE
# =0.25) so a full regeneration stays interactive; export
# A4_TEST_DURATION_SCALE=1 (or an explicit A4_BENCH_WINDOWS_MS) for
# full-fidelity numbers. Parallelism comes from the benches' sweep
# runner: all points of a bench fan out over $A4_JOBS local worker
# processes (default: all cores), and the dispatcher's retry count
# lands in the per-bench wrapper next to wall_s (outside the
# deterministic "metrics", which stay byte-identical however the
# points ran).
#
# Usage: scripts/figures.sh [build-dir] [output.json]
#   build-dir     built tree with bench/ binaries (default: build)
#   output.json   aggregate destination (default: BENCH_figures.json)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_figures.json}"
OUT_DIR="${FIGURES_OUT:-$BUILD_DIR/figures}"
JOBS="${A4_JOBS:-$(nproc)}"
export A4_TEST_DURATION_SCALE="${A4_TEST_DURATION_SCALE:-0.25}"

BENCHES=(
  fig03_contention
  fig04_directory_validation
  fig05_storage_dca
  fig06_storage_network
  fig07_overlap_exclude
  fig08_device_aware
  fig11_xmem_packet_sweep
  fig12_network_block_sweep
  fig13_realworld
  fig14_breakdown
  fig15_sensitivity
  ablation_replacement
  memcached_value_sweep
  storage_server_sweep
  fleet_tenant_sweep
)

A4BENCH="$BUILD_DIR/bench/a4bench"
if [ ! -x "$A4BENCH" ]; then
  echo "figures.sh: $A4BENCH not built (run cmake --build $BUILD_DIR)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
declare -A WALL RETRIES

for b in "${BENCHES[@]}"; do
  echo "== $b (jobs=$JOBS, duration scale $A4_TEST_DURATION_SCALE) =="
  start=$(date +%s.%N)
  "$A4BENCH" "$b" --jobs "$JOBS" --json "$OUT_DIR/$b.json" \
    | tee "$OUT_DIR/$b.txt"
  # Fractional seconds: checkpoint-restored sweeps finish in well
  # under a second, which integer $SECONDS arithmetic rounds to 0.
  WALL[$b]=$(awk -v a="$start" -v b="$(date +%s.%N)" \
             'BEGIN { printf "%.3f", b - a }')
  # The sweep runner emits a "dispatch" line only when the failure
  # model had to act; a clean run records 0 here.
  RETRIES[$b]=$(sed -n \
    's/.*"dispatch": {"retries": \([0-9]*\).*/\1/p' "$OUT_DIR/$b.json")
  RETRIES[$b]=${RETRIES[$b]:-0}
done

# Aggregate: each bench's JSON verbatim, wrapped with its wall-clock.
{
  echo '{'
  echo '  "schema_version": 1,'
  echo "  \"jobs\": $JOBS,"
  echo "  \"duration_scale\": \"$A4_TEST_DURATION_SCALE\","
  echo "  \"nic_burst\": \"${A4_NIC_BURST:-default}\","
  echo '  "benches": ['
  sep=''
  for b in "${BENCHES[@]}"; do
    printf '%s    {"name": "%s", "wall_s": %s, "dispatch_retries": %s, "result":\n' \
      "$sep" "$b" "${WALL[$b]}" "${RETRIES[$b]}"
    sed 's/^/    /' "$OUT_DIR/$b.json"
    printf '    }'
    sep=$',\n'
  done
  printf '\n  ]\n}\n'
} > "$OUT_JSON"

echo "figures.sh: wrote $OUT_JSON ($(wc -c < "$OUT_JSON") bytes)"
