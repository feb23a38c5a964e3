/**
 * @file
 * Result types of the paper's evaluation scenarios (§7): the
 * management schemes (Default, Isolate, A4-a..d), the microbenchmark
 * co-run's per-X-Mem outcome (Fig. 11/12), the real-world HPW-heavy /
 * LPW-heavy mixes' per-workload outcome (Fig. 13/14/15), and their
 * sweep-pipe codecs. The scenarios themselves are declarative specs
 * (microSpec()/realWorldSpec() in harness/spec.hh) run by runSpec()
 * and restated by microResultFromSpec()/scenarioResultFromSpec().
 */

#ifndef A4_HARNESS_SCENARIOS_HH
#define A4_HARNESS_SCENARIOS_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace a4
{

/**
 * LLC management scheme under evaluation. `Static` is the
 * motivation-figure setup (Figs. 3-8): no manager at all, the spec's
 * way pins programmed directly into CAT (CLOS 1, 2, ... in list
 * order) — exactly the hand-wired `pinWays` testbeds.
 */
enum class Scheme { Default, Isolate, A4a, A4b, A4c, A4d, Static };

const char *schemeName(Scheme s);

/** All evaluated schemes, in bench display order. */
std::span<const Scheme> allSchemes();

/** Inverse of schemeName(); nullopt for unknown names. */
std::optional<Scheme> schemeFromName(const std::string &name);

/** True for the A4 variants. */
inline bool
isA4(Scheme s)
{
    return s == Scheme::A4a || s == Scheme::A4b || s == Scheme::A4c ||
           s == Scheme::A4d;
}

/** Ablation letter for an A4 scheme. */
char a4Letter(Scheme s);

/** Per-workload outcome of a scenario run. */
struct WorkloadResult
{
    std::string name;
    bool hpw = false;        ///< original QoS
    bool multithread_io = false; ///< perf = throughput, else IPC
    double perf = 0.0;       ///< ops-throughput or IPC (absolute)
    double llc_hit_rate = 0.0;
    bool antagonist = false; ///< flagged by A4 during the run
    double tail_latency_us = 0.0; ///< I/O workloads only
};

/** Scenario-wide outcome. */
struct ScenarioResult
{
    std::vector<WorkloadResult> workloads;

    // Fig. 14a: Fastclick latency breakdown (us).
    double fc_nic_to_host_us = 0.0;
    double fc_pointer_us = 0.0;
    double fc_process_us = 0.0;

    // Fig. 14b: FFSB-H latency breakdown (ms).
    double ffsbh_read_ms = 0.0;
    double ffsbh_regex_ms = 0.0;
    double ffsbh_write_ms = 0.0;

    // Fig. 14c: system-wide I/O throughput (paper-equivalent GB/s).
    double fc_rd_gbps = 0.0;
    double fc_wr_gbps = 0.0;
    double ffsbh_rd_gbps = 0.0;
    double ffsbh_wr_gbps = 0.0;

    // Fig. 14d: memory bandwidth (paper-equivalent GB/s).
    double mem_rd_gbps = 0.0;
    double mem_wr_gbps = 0.0;

    /** Engine::pastEvents() after the run: past-dated schedules the
     *  release build clamped to now(). Anything non-zero means an
     *  actor slipped and the figure numbers are suspect. */
    double past_events = 0.0;

    const WorkloadResult *find(const std::string &name) const;

    /** Geometric-mean relative performance vs @p baseline. */
    static double avgRelative(const ScenarioResult &r,
                              const ScenarioResult &baseline,
                              std::optional<bool> hpw_filter);
};

/** Per-X-Mem outcome of the microbenchmark co-run (Fig. 11/12). */
struct MicroResult
{
    double xmem_ipc[3] = {0, 0, 0};
    double xmem_hit[3] = {0, 0, 0};
    double net_tail_us = 0.0;
    double net_rd_gbps = 0.0; ///< network ingress, paper-equivalent
    double past_events = 0.0; ///< see ScenarioResult::past_events
};

/** @name Sweep-pipe codecs for the scenario result structs. @{ */
Record toRecord(const MicroResult &r);
Record toRecord(const ScenarioResult &r);
ScenarioResult scenarioResultFrom(const Record &r);
/** @} */

} // namespace a4

#endif // A4_HARNESS_SCENARIOS_HH
