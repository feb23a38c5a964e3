#!/usr/bin/env bash
# Byte-identity contract runner: every carrier and runner mode must
# produce the same simulated bytes.
#
#   - a4sim: every registered scenario at -j4 under the default modes,
#     per-packet NIC events (--burst 0) and per-completion NVMe events
#     (A4_NVME_LAZY=0), plus a -j1 run; the JSON must match with the
#     "wall" lines removed.
#   - a4bench: the same four runs of fig05, fig06, fig12, fig13,
#     storage_server_sweep and the fleet_tenant_sweep A4-d/t64 point;
#     the printed tables and the JSON ("wall" lines removed) must
#     match. (The JSON header's "jobs" field tracks the worker count,
#     so the -j1 leg compares tables only.)
#
# Usage: scripts/check_contracts.sh [build-dir]   (default: build)
# Windows honour A4_TEST_DURATION_SCALE (default here: 0.1).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
A4SIM="$BUILD/bench/a4sim"
A4BENCH="$BUILD/bench/a4bench"
for bin in "$A4SIM" "$A4BENCH"; do
  [ -x "$bin" ] || { echo "check_contracts: $bin not built" >&2; exit 1; }
done
export A4_TEST_DURATION_SCALE="${A4_TEST_DURATION_SCALE:-0.1}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

nowall() { grep -v '"wall"' "$1"; }

# check NAME CMD...: run CMD in the four modes and diff against the
# default run.
check() {
  local name="$1"
  shift
  local out="$TMP/$name"
  "$@" --jobs 4 --json "$out.json" > "$out.txt"
  "$@" --jobs 1 > "$out.j1.txt"
  "$@" --jobs 4 --burst 0 --json "$out.pp.json" > "$out.pp.txt"
  A4_NVME_LAZY=0 "$@" --jobs 4 --json "$out.ev.json" > "$out.ev.txt"
  diff -u "$out.txt" "$out.j1.txt"
  for mode in pp ev; do
    diff -u "$out.txt" "$out.$mode.txt"
    diff -u <(nowall "$out.json") <(nowall "$out.$mode.json")
  done
  echo "check_contracts: $name: -j1 == -j4, per-packet == burst," \
       "per-completion == lazy"
}

check a4sim "$A4SIM"
check fig05 "$A4BENCH" fig05_storage_dca
check fig06 "$A4BENCH" fig06_storage_network
check fig12 "$A4BENCH" fig12_network_block_sweep
check fig13 "$A4BENCH" fig13_realworld
check storage_server "$A4BENCH" storage_server_sweep
check fleet_t64 "$A4BENCH" fleet_tenant_sweep --filter A4-d/t64
