#!/usr/bin/env bash
# Spec-layer smoke: the declarative scenario pipeline end to end.
#
#   1. Round-trip: every registered scenario must survive
#      parse -> serialize -> parse bit-exactly (a4sim --print of a
#      spec reloaded from its own --print output is identical).
#   2. Equivalence: a4sim running a canonical spec must produce
#      exactly the figure benches' values — micro vs the fig11
#      Default/p1024B point and realworld-hpw vs the fig13
#      hpw-heavy/Default point, compared metric by metric with exact
#      float equality (both sides print 17-significant-digit JSON).
#
# Usage: scripts/check_a4sim.sh [build-dir]   (default: build)
# Windows honour A4_TEST_DURATION_SCALE like every bench.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
A4SIM="$BUILD/bench/a4sim"
[ -x "$A4SIM" ] || { echo "check_a4sim: $A4SIM not built" >&2; exit 1; }

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# --list prints the shared registry format (name, kinds, summary);
# the scenario name is the first column.
for name in $("$A4SIM" --list | awk '{print $1}'); do
  "$A4SIM" "$name" --print > "$TMP/$name.spec"
  "$A4SIM" --file "$TMP/$name.spec" --print > "$TMP/$name.spec2"
  diff -u "$TMP/$name.spec" "$TMP/$name.spec2"
  echo "check_a4sim: $name: parse -> serialize -> parse round-trips"
done

# A spec from a file, with one field overridden, must run and land on
# a different operating point (the fig11 256 B column vs 1024 B).
"$A4SIM" --file "$TMP/micro.spec" --set dpdk-t.packet_bytes=256 \
  --json "$TMP/micro256.json" > /dev/null
"$BUILD/bench/a4bench" fig11_xmem_packet_sweep --filter "Default/p256B" \
  --json "$TMP/fig11_256.json" > /dev/null
python3 - "$TMP" <<'EOF'
import json
import sys
tmp = sys.argv[1]
a = next(iter(json.load(open(f"{tmp}/micro256.json"))["points"]))["metrics"]
f = json.load(open(f"{tmp}/fig11_256.json"))["points"][0]["metrics"]
wl = {a[f"w{i}.name"]: i for i in range(int(a["workloads"]))}
x1 = a[f"w{wl['xmem1']}.ipc"]
assert x1 == f["x1_ipc"], (x1, f["x1_ipc"])
print("check_a4sim: file + --set override reproduces the fig11 "
      "256 B point")
EOF

"$A4SIM" micro --json "$TMP/micro.json" > /dev/null
"$BUILD/bench/a4bench" fig11_xmem_packet_sweep --filter "Default/p1024B" \
  --json "$TMP/fig11.json" > /dev/null
"$A4SIM" realworld-hpw --json "$TMP/rw.json" > /dev/null
"$BUILD/bench/a4bench" fig13_realworld --filter "hpw-heavy/Default" \
  --json "$TMP/fig13.json" > /dev/null

python3 - "$TMP" <<'EOF'
import json
import sys

tmp = sys.argv[1]


def point(path, name=None):
    with open(path) as f:
        data = json.load(f)
    pts = {p["name"]: p["metrics"] for p in data["points"]}
    return pts[name] if name else next(iter(pts.values()))


def workloads(rec):
    n = int(rec["workloads"])
    out = []
    for i in range(n):
        out.append({k.split(".", 1)[1]: v for k, v in rec.items()
                    if k.startswith(f"w{i}.")})
    return out


def check(label, derived, expected):
    bad = [k for k in expected if derived.get(k) != expected[k]]
    if bad:
        for k in bad:
            print(f"check_a4sim: {label}: {k}: a4sim-derived "
                  f"{derived.get(k)!r} != bench {expected[k]!r}")
        sys.exit(1)
    print(f"check_a4sim: {label}: {len(expected)} metrics exactly "
          f"equal")


# --- micro vs fig11 Default/p1024B -----------------------------------
a = point(f"{tmp}/micro.json")
fig11 = point(f"{tmp}/fig11.json", "Default/p1024B")
wl = {w["name"]: w for w in workloads(a)}
scale, meas = a["scale"], a["measure_ns"]
d = {}
for v in (1, 2, 3):
    d[f"x{v}_ipc"] = wl[f"xmem{v}"]["ipc"]
    d[f"x{v}_hit"] = wl[f"xmem{v}"]["hit"]
d["net_tail_us"] = wl["dpdk-t"]["tail_us"]
d["net_rd_gbps"] = wl["dpdk-t"]["in_bytes"] * 1e9 / meas * scale / 1e9
d["past_events"] = a["past_events"]
check("micro vs fig11", d, fig11)

# --- realworld-hpw vs fig13 hpw-heavy/Default ------------------------
a = point(f"{tmp}/rw.json")
fig13 = point(f"{tmp}/fig13.json", "hpw-heavy/Default")
ws = workloads(a)
wl = {w["name"]: w for w in ws}
scale, meas = a["scale"], a["measure_ns"]
d = {"workloads": float(len(ws))}
for i, w in enumerate(ws):
    p = f"w{i}."
    d[p + "name"] = w["name"]
    d[p + "hpw"] = w["hpw"]
    d[p + "mtio"] = w["mtio"]
    d[p + "perf"] = w["perf"]
    d[p + "hit"] = w["hit"]
    d[p + "ant"] = w["ant"]
    d[p + "tail_us"] = w["tail_us"]
fc, fh = wl["fastclick"], wl["ffsb-h"]
d["fc_nic_to_host_us"] = fc["net_nic_to_host_ns"] / 1000.0
d["fc_pointer_us"] = fc["net_pointer_ns"] / 1000.0
d["fc_process_us"] = fc["net_process_ns"] / 1000.0
d["ffsbh_read_ms"] = fh["sto_read_ns"] / 1e6
d["ffsbh_regex_ms"] = fh["sto_regex_ns"] / 1e6
d["ffsbh_write_ms"] = fh["sto_write_ns"] / 1e6
to_gbps = 1e9 / meas * scale / 1e9
d["fc_rd_gbps"] = fc["in_bytes"] * to_gbps
d["fc_wr_gbps"] = fc["out_bytes"] * to_gbps
d["ffsbh_rd_gbps"] = fh["in_bytes"] * to_gbps
d["ffsbh_wr_gbps"] = fh["out_bytes"] * to_gbps
d["mem_rd_gbps"] = a["mem_rd_bw_bps"] * scale / 1e9
d["mem_wr_gbps"] = a["mem_wr_bw_bps"] * scale / 1e9
d["past_events"] = a["past_events"]
check("realworld-hpw vs fig13", d, fig13)
EOF

# --- storage-server vs storage_server_sweep Default/b131072 ----------
# The scenario's base point (scheme Default, 128 KiB blocks) is one
# cell of the registered sweep; a4sim must land on exactly its values.
"$A4SIM" storage-server --json "$TMP/ss.json" > /dev/null
"$BUILD/bench/a4bench" storage_server_sweep --filter "Default/b131072" \
  --json "$TMP/ss_sweep.json" > /dev/null
python3 - "$TMP" <<'EOF'
import json
import sys

tmp = sys.argv[1]
a = next(iter(json.load(open(f"{tmp}/ss.json"))["points"]))["metrics"]
sw = json.load(open(f"{tmp}/ss_sweep.json"))["points"][0]["metrics"]
wl = {a[f"w{i}.name"]: f"w{i}." for i in range(int(a["workloads"]))}
scale, meas = a["scale"], a["measure_ns"]
d = {
    "ss_perf": a[wl["ss"] + "perf"],
    "ss_p99_us": a[wl["ss"] + "tail_us"],
    "ss_leak": a[wl["ss"] + "leak"],
    "ant_gbps": a[wl["fio"] + "in_bytes"] * 1e9 / meas * scale / 1e9,
}
bad = [k for k in d if d[k] != sw[k]]
if bad:
    for k in bad:
        print(f"check_a4sim: storage-server: {k}: a4sim-derived "
              f"{d[k]!r} != sweep {sw[k]!r}")
    sys.exit(1)
print(f"check_a4sim: storage-server vs storage_server_sweep: "
      f"{len(d)} metrics exactly equal")
EOF

# --- fleet-memcached vs fleet_tenant_sweep Default/t32 ---------------
# The registered fleet scenario (1 frontend + 32 replicated tenants)
# is the sweep's Default/t32 cell; the sweep's fleet aggregates must
# equal the same statistics recomputed from a4sim's per-tenant record
# (identical IEEE-754 operation order), and the frontend's tail/perf
# must match exactly.
"$A4SIM" fleet-memcached --json "$TMP/fleet.json" > /dev/null
"$BUILD/bench/a4bench" fleet_tenant_sweep --filter "Default/t32" \
  --json "$TMP/fleet_sweep.json" > /dev/null
python3 - "$TMP" <<'EOF'
import json
import math
import sys

tmp = sys.argv[1]
a = next(iter(json.load(open(f"{tmp}/fleet.json"))["points"]))["metrics"]
sw = json.load(open(f"{tmp}/fleet_sweep.json"))["points"][0]["metrics"]
n = int(a["workloads"])
wl = {a[f"w{i}.name"]: f"w{i}." for i in range(n)}
perfs = [a[f"w{i}.perf"] for i in range(n)]
tails = [a[f"w{i}.tail_us"] for i in range(n) if a[f"w{i}.tail_us"] > 0.0]

s = sq = 0.0
for x in perfs:
    s += x
    sq += x * x
jain = (s * s) / (float(len(perfs)) * sq)

tails.sort()
rank = min(max(int(math.ceil(0.99 * float(len(tails)))), 1), len(tails))
p99 = tails[rank - 1]

# One kind in this scenario (every tenant is memcached-udp), so the
# per-kind best is the global best.
best = max(perfs)
worst = 1.0
for x in perfs:
    worst = min(worst, x / best)

d = {
    "jain": jain,
    "fleet_p99_us": p99,
    "worst_slowdown": worst,
    "fe_p99_us": a[wl["fe"] + "tail_us"],
    "fe_perf": a[wl["fe"] + "perf"],
}
bad = [k for k in d if d[k] != sw[k]]
if bad:
    for k in bad:
        print(f"check_a4sim: fleet-memcached: {k}: a4sim-derived "
              f"{d[k]!r} != sweep {sw[k]!r}")
    sys.exit(1)
print(f"check_a4sim: fleet-memcached vs fleet_tenant_sweep: "
      f"{len(d)} metrics exactly equal (33 tenants)")
EOF

echo "check_a4sim: OK"
