/**
 * @file
 * Vocabulary of the paper's evaluation scenarios (§7): the management
 * schemes (Default, Isolate, A4-a..d), the microbenchmark co-run's
 * per-X-Mem outcome (Fig. 11/12) with its sweep-pipe codec, and the
 * per-workload reads of the Records the real-world HPW-heavy /
 * LPW-heavy mixes produce (Fig. 13/14/15). The scenarios themselves
 * are declarative specs (microSpec()/realWorldSpec() in
 * harness/spec.hh) run by runSpec() and projected by
 * microResultFromSpec()/scenarioRecord().
 */

#ifndef A4_HARNESS_SCENARIOS_HH
#define A4_HARNESS_SCENARIOS_HH

#include <optional>
#include <span>
#include <string>

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

/** Per-X-Mem outcome of the microbenchmark co-run (Fig. 11/12). */
struct MicroResult
{
    double xmem_ipc[3] = {0, 0, 0};
    double xmem_hit[3] = {0, 0, 0};
    double net_tail_us = 0.0;
    double net_rd_gbps = 0.0; ///< network ingress, paper-equivalent

    /** Engine::pastEvents() after the run: past-dated schedules the
     *  release build clamped to now(). Anything non-zero means an
     *  actor slipped and the figure numbers are suspect. */
    double past_events = 0.0;
};

/** Sweep-pipe codec for MicroResult (the record = micro view). */
Record toRecord(const MicroResult &r);

/** @name Per-workload reads of a spec- or scenario-view Record
 *  ("workloads" = N, then "w<i>.name", "w<i>.hpw", "w<i>.perf", ...).
 *  @{ */
/** Key prefix ("w<i>.") of the workload named @p name; "" when the
 *  record has no such workload. */
std::string recordWorkload(const Record &rec, const std::string &name);

/**
 * Geometric-mean relative performance of @p r vs @p baseline, the
 * Fig. 13/15 aggregate: over @p r's workloads of class @p hpw_filter
 * (all when nullopt), matched to @p baseline by name, skipping those
 * absent from the baseline or with a non-positive perf on either
 * side; 0 when none remain.
 */
double avgRelativePerf(const Record &r, const Record &baseline,
                       std::optional<bool> hpw_filter);
/** @} */

} // namespace a4

#endif // A4_HARNESS_SCENARIOS_HH
