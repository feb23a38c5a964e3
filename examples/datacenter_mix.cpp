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
 *  (A4_TEST_DURATION_SCALE / A4_BENCH_WINDOWS_MS apply). */
ScenarioResult
runHpwHeavy(Scheme scheme)
{
    ScenarioSpec spec = realWorldSpec(true);
    spec.scheme = scheme;
    return scenarioResultFromSpec(runSpec(spec));
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("Datacenter mix: 7 high-priority + 4 low-priority "
                "workloads\n\n");

    ScenarioResult def = runHpwHeavy(Scheme::Default);
    ScenarioResult a4 = runHpwHeavy(Scheme::A4d);

    Table t({"workload", "QoS", "metric", "Default", "A4-d",
             "relative"});
    for (const auto &w : def.workloads) {
        const WorkloadResult *r = a4.find(w.name);
        if (!r)
            continue;
        std::string name = w.name + (r->antagonist ? "*" : "");
        t.addRow({name, w.hpw ? "HP" : "LP",
                  w.multithread_io ? "req/s (1/lat)" : "IPC",
                  Table::num(w.perf, w.multithread_io ? 0 : 3),
                  Table::num(r->perf, w.multithread_io ? 0 : 3),
                  Table::num(ratio(r->perf, w.perf), 2)});
    }
    t.print();
    std::printf("\n(* = flagged by A4 for pseudo LLC bypassing / DDIO "
                "disable)\n");

    double hp = ScenarioResult::avgRelative(a4, def, true);
    double lp = ScenarioResult::avgRelative(a4, def, false);
    std::printf("\nA4-d vs Default: HPWs %+0.0f%%, LPWs %+0.0f%%\n",
                (hp - 1.0) * 100.0, (lp - 1.0) * 100.0);
    return 0;
}
