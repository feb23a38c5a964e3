/**
 * @file
 * Datacenter consolidation example: the paper's HPW-heavy real-world
 * mix (Table 2) — a packet processor, a persistent KV store, SPEC
 * CPU2017 jobs, and a heavy filesystem benchmark — first unmanaged,
 * then under A4.
 *
 * Demonstrates the declarative scenario harness (the same registered
 * spec and runner the Fig. 13/14 sweeps use) and how to read
 * per-workload outcomes.
 *
 * Run:  ./example_datacenter_mix
 */

#include <cstdio>

#include "harness/spec.hh"
#include "harness/table.hh"
#include "sim/log.hh"

using namespace a4;

namespace
{

/** The HPW-heavy mix under @p scheme, at the spec's default windows
 *  (A4_TEST_DURATION_SCALE / A4_BENCH_WINDOWS_MS apply), as the
 *  spec-view Record (per-workload keys w<i>.name, w<i>.perf, ...). */
Record
runHpwHeavy(Scheme scheme)
{
    ScenarioSpec spec = realWorldSpec(true);
    spec.scheme = scheme;
    return toRecord(runSpec(spec));
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("Datacenter mix: 7 high-priority + 4 low-priority "
                "workloads\n\n");

    const Record def = runHpwHeavy(Scheme::Default);
    const Record a4 = runHpwHeavy(Scheme::A4d);

    Table t({"workload", "QoS", "metric", "Default", "A4-d",
             "relative"});
    const std::size_t n = std::size_t(def.num("workloads"));
    for (std::size_t i = 0; i < n; ++i) {
        const std::string w = sformat("w%zu.", i);
        const std::string &name = def.str(w + "name");
        const std::string r = recordWorkload(a4, name);
        if (r.empty())
            continue;
        const bool mtio = def.num(w + "mtio") != 0.0;
        const double perf = def.num(w + "perf");
        const double a4_perf = a4.num(r + "perf");
        t.addRow({name + (a4.num(r + "ant") != 0.0 ? "*" : ""),
                  def.num(w + "hpw") != 0.0 ? "HP" : "LP",
                  mtio ? "req/s (1/lat)" : "IPC",
                  Table::num(perf, mtio ? 0 : 3),
                  Table::num(a4_perf, mtio ? 0 : 3),
                  Table::num(ratio(a4_perf, perf), 2)});
    }
    t.print();
    std::printf("\n(* = flagged by A4 for pseudo LLC bypassing / DDIO "
                "disable)\n");

    double hp = avgRelativePerf(a4, def, true);
    double lp = avgRelativePerf(a4, def, false);
    std::printf("\nA4-d vs Default: HPWs %+0.0f%%, LPWs %+0.0f%%\n",
                (hp - 1.0) * 100.0, (lp - 1.0) * 100.0);
    return 0;
}
