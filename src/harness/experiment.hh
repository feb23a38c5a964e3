/**
 * @file
 * Shared warm-up/measure plumbing for the bench binaries.
 *
 * Every figure bench follows the same protocol as the paper's runs
 * (70 s with 10 s warm-up / 10 s collection, compressed): start the
 * workloads, run a warm-up window, snapshot all counters and reset
 * the latency distributions, run the measurement window, then read
 * the deltas.
 */

#ifndef A4_HARNESS_EXPERIMENT_HH
#define A4_HARNESS_EXPERIMENT_HH

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "harness/testbed.hh"
#include "pcm/monitor.hh"
#include "sim/log.hh"
#include "workload/workload.hh"

namespace a4
{

/** Warm-up + measurement windows (simulated time). */
struct Windows
{
    Tick warmup = 60 * kMsec;
    Tick measure = 150 * kMsec;

    /**
     * Adjust @p defaults by the environment knobs:
     *
     *  - A4_TEST_DURATION_SCALE (positive float) multiplies both
     *    windows — the same knob the test suite uses, so a fractional
     *    value compresses a figure sweep into a smoke run and the
     *    soak value stretches it;
     *  - A4_BENCH_WINDOWS_MS ("<warmup>:<measure>", integer
     *    milliseconds) overrides both windows exactly, ignoring the
     *    scale — the explicit knob for the full-fidelity runs
     *    recorded in EXPERIMENTS.md.
     *
     * Malformed values are rejected with a warning, never
     * half-parsed.
     */
    /**
     * $A4_TEST_DURATION_SCALE as a window multiplier, 1.0 when unset
     * or malformed (with a warning). The single parser for the knob:
     * fromEnv() and the test suite's stretch() both use it.
     */
    static double
    durationScale()
    {
        if (const char *env = std::getenv("A4_TEST_DURATION_SCALE")) {
            char *end = nullptr;
            const double s = std::strtod(env, &end);
            // The cap keeps double(window) * s well inside Tick when
            // converted back (and rejects inf/nan outright): an
            // out-of-range double-to-integer conversion is UB.
            constexpr double max_scale = 1e6;
            if (end && end != env && *end == '\0' && s > 0.0 &&
                s <= max_scale) {
                return s;
            }
            // The parse itself is never memoized — tests change the
            // env between calls and expect fromEnv() to follow.
            static std::string warned;
            warnOncePerValue(warned, env,
                             "warning: A4_TEST_DURATION_SCALE: "
                             "ignoring malformed value '%s'\n");
        }
        return 1.0;
    }

    static Windows
    fromEnv(Windows defaults)
    {
        Windows w = defaults;
        if (const double s = durationScale(); s != 1.0) {
            w.warmup = std::max<Tick>(Tick(double(w.warmup) * s), 1);
            w.measure = std::max<Tick>(Tick(double(w.measure) * s), 1);
        }
        if (const char *env = std::getenv("A4_BENCH_WINDOWS_MS")) {
            // strtoul, not sscanf %lu: the latter silently saturates
            // on overflow, which would smuggle a garbage window past
            // the "rejected, never half-parsed" contract.
            const char *colon = std::strchr(env, ':');
            bool ok = colon && colon != env && colon[1] != '\0' &&
                      std::strchr(colon + 1, ':') == nullptr &&
                      env[std::strspn(env, "0123456789:")] == '\0';
            if (ok) {
                // Caps far above any real run but far below Tick
                // overflow once scaled to nanoseconds.
                constexpr unsigned long max_ms = 1000UL * 1000 * 1000;
                errno = 0;
                char *end = nullptr;
                const unsigned long a = std::strtoul(env, &end, 10);
                const unsigned long b =
                    std::strtoul(colon + 1, &end, 10);
                ok = errno == 0 && a > 0 && b > 0 && a <= max_ms &&
                     b <= max_ms;
                if (ok) {
                    w.warmup = a * kMsec;
                    w.measure = b * kMsec;
                }
            }
            if (!ok) {
                static std::string warned;
                warnOncePerValue(warned, env,
                                 "warning: A4_BENCH_WINDOWS_MS: "
                                 "ignoring malformed value '%s' (want "
                                 "\"<warmup>:<measure>\" in whole "
                                 "positive milliseconds)\n");
            }
        }
        return w;
    }

    /** The standard bench windows, adjusted by the environment. */
    static Windows fromEnv() { return fromEnv(Windows{}); }
};

/** One warm-up + measurement pass over a set of workloads. */
class Measurement
{
  public:
    Measurement(Testbed &bed, std::vector<Workload *> tracked,
                Windows windows = Windows::fromEnv())
        : bed(bed), tracked(std::move(tracked)), win(windows),
          mon(bed.makeMonitor())
    {}

    /** Run warm-up, snapshot, run measurement. Call once. */
    void
    run()
    {
        startAndWarm();
        beginMeasure();
        runMeasure();
    }

    /**
     * @name Phased protocol.
     * run() is startAndWarm() -> beginMeasure() -> runMeasure();
     * callers that time the warm-up and the measurement window
     * separately (runSpec's wall split, a4perf's spans) call the
     * phases themselves.
     * @{
     */

    /** Start every tracked workload and run the warm-up window. */
    void
    startAndWarm()
    {
        for (Workload *w : tracked)
            w->start();
        bed.run(win.warmup);
    }

    /** Snapshot all counters and reset the latency distributions. */
    void
    beginMeasure()
    {
        for (Workload *w : tracked) {
            mon.sampleWorkload(w->id());
            w->resetWindow();
            ops_prev[w->id()] = 0;
            w->ops().delta(ops_prev[w->id()]);
            bytes_prev[w->id()] = 0;
            w->bytes().delta(bytes_prev[w->id()]);
            instr_prev[w->id()] = 0;
            w->instructions().delta(instr_prev[w->id()]);
            cyc_prev[w->id()] = 0;
            w->cycles().delta(cyc_prev[w->id()]);
        }
        mon.sampleSystem();
    }

    /** Run the measurement window. */
    void runMeasure() { bed.run(win.measure); }
    /** @} */

    /** Counter deltas for @p w over the measurement window. */
    WorkloadSample
    sample(const Workload &w)
    {
        return mon.sampleWorkload(w.id());
    }

    SystemSample
    system()
    {
        return mon.sampleSystem();
    }

    /** Paper-equivalent processed-bytes throughput (bytes/s). */
    double
    throughputBps(Workload &w)
    {
        std::uint64_t b = w.bytes().delta(bytes_prev[w.id()]);
        return double(b) * 1e9 / double(win.measure) *
               bed.config().scale;
    }

    /** Operations per second over the window. */
    double
    opsPerSec(Workload &w)
    {
        std::uint64_t n = w.ops().delta(ops_prev[w.id()]);
        return double(n) * 1e9 / double(win.measure);
    }

    /** IPC proxy over the window. */
    double
    ipc(Workload &w)
    {
        std::uint64_t i = w.instructions().delta(instr_prev[w.id()]);
        std::uint64_t c = w.cycles().delta(cyc_prev[w.id()]);
        return ratio(double(i), double(c));
    }

    const Windows &windows() const { return win; }

  private:
    Testbed &bed;
    std::vector<Workload *> tracked;
    Windows win;
    PcmMonitor mon;
    std::unordered_map<WorkloadId, std::uint64_t> ops_prev;
    std::unordered_map<WorkloadId, std::uint64_t> bytes_prev;
    std::unordered_map<WorkloadId, std::uint64_t> instr_prev;
    std::unordered_map<WorkloadId, std::uint64_t> cyc_prev;
};

} // namespace a4

#endif // A4_HARNESS_EXPERIMENT_HH
