/**
 * @file
 * Lazy (deferred, eventless) NVMe completion delivery vs the
 * per-completion carrier baseline: identical workload-visible
 * results, strictly fewer engine events. The FIO co-run exercises
 * the full chain — submit, completion DMA behind the observation
 * barrier, virtual-time latency accounting, consume-loop drains,
 * and write-back chains — under both modes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "duration_scale.hh"
#include "harness/builders.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

using namespace a4;
using a4::test::stretch;

namespace
{

struct RunOutcome
{
    std::string stats; ///< serialized workload-visible results
    std::uint64_t events = 0;
};

/** A fig05-style FFSB run (write mix, deep queues) plus an X-Mem
 *  bystander whose accesses trigger barrier drains. */
RunOutcome
runFfsb(bool lazy)
{
    setenv("A4_NVME_LAZY", lazy ? "1" : "0", 1);
    Testbed bed;

    SsdConfig ssd;
    ssd.link_bw_bps = 9.6e9;
    ssd.parallelism = 12;
    FioConfig cfg = ffsbHeavyConfig(bed.config().scale);
    cfg.regex_ns_per_line = 19.0 * bed.config().scale;
    FioWorkload &fio = addFioCustom(bed, "ffsb", cfg, ssd);
    CpuStreamWorkload &xmem = addXmem(bed, "xmem", 1, 2);

    EXPECT_EQ(SsdConfig{}.lazy_completions, lazy);

    Windows win;
    win.warmup = stretch(2 * kMsec);
    win.measure = stretch(8 * kMsec);
    Measurement m(bed, {&fio, &xmem}, win);
    m.run();

    RunOutcome out;
    WorkloadSample fs = m.sample(fio);
    WorkloadSample xs = m.sample(xmem);
    Record r;
    r.set("fio_ops", double(fio.ops().value()));
    r.set("fio_bytes", double(fio.bytes().value()));
    r.set("fio_hit", fs.llcHitRate());
    r.set("fio_read_lat", fio.readLatency().mean());
    r.set("fio_regex_lat", fio.regexLatency().mean());
    r.set("fio_write_lat", fio.writeLatency().mean());
    r.set("fio_lat_mean", fio.latency().mean());
    r.set("fio_p99", fio.latency().percentile(99));
    r.set("xmem_ipc", m.ipc(xmem));
    r.set("xmem_hit", xs.llcHitRate());
    SystemSample sys = m.system();
    r.set("mem_rd", sys.memReadBwBps());
    r.set("mem_wr", sys.memWriteBwBps());
    r.set("ingress", double(sys.ports[fio.ioPort()].ingress_bytes));
    r.set("egress", double(sys.ports[fio.ioPort()].egress_bytes));
    r.set("past_events", double(bed.engine().pastEvents()));
    out.stats = r.serialize();
    out.events = bed.engine().eventsFired();
    return out;
}

} // namespace

TEST(NvmeLazy, ByteIdenticalToPerCompletionEvents)
{
    RunOutcome lazy = runFfsb(true);
    RunOutcome eager = runFfsb(false);
    unsetenv("A4_NVME_LAZY");
    EXPECT_EQ(lazy.stats, eager.stats);
}

namespace
{

/** A completion-dominated run: small blocks, no consume loop (the
 *  submit->complete->resubmit chain is pure device traffic), so the
 *  per-completion carrier is essentially the whole event volume. */
RunOutcome
runFlood(bool lazy)
{
    setenv("A4_NVME_LAZY", lazy ? "1" : "0", 1);
    Testbed bed;
    FioConfig cfg = scaledFioConfig(4 * kKiB, bed.config().scale);
    cfg.consume = false;
    // Slow idle polls: the per-completion carrier is then essentially
    // the entire event volume of the eager run.
    cfg.idle_poll_ns = 1 * kMsec;
    FioWorkload &fio = addFioCustom(bed, "flood", cfg);
    Windows win;
    win.warmup = stretch(1 * kMsec);
    win.measure = stretch(5 * kMsec);
    Measurement m(bed, {&fio}, win);
    m.run();
    RunOutcome out;
    Record r;
    r.set("reads", double(fio.ops().value()));
    r.set("read_lat", fio.readLatency().mean());
    SystemSample sys = m.system();
    r.set("ingress", double(sys.ports[fio.ioPort()].ingress_bytes));
    out.stats = r.serialize();
    out.events = bed.engine().eventsFired();
    return out;
}

} // namespace

TEST(NvmeLazy, CutsEngineEvents)
{
    // Co-run (poll- and consume-driven): completions ride existing
    // observations, a modest absolute saving.
    RunOutcome lazy = runFfsb(true);
    RunOutcome eager = runFfsb(false);
    EXPECT_LT(lazy.events, eager.events);

    // Completion-dominated flood: the carrier was the event volume.
    RunOutcome flood_lazy = runFlood(true);
    RunOutcome flood_eager = runFlood(false);
    unsetenv("A4_NVME_LAZY");
    EXPECT_EQ(flood_lazy.stats, flood_eager.stats);
    EXPECT_GE(flood_eager.events, 5 * std::max<std::uint64_t>(
                                          flood_lazy.events, 1));
    std::fprintf(stderr,
                 "events: co-run %llu vs %llu; flood %llu vs %llu\n",
                 (unsigned long long)lazy.events,
                 (unsigned long long)eager.events,
                 (unsigned long long)flood_lazy.events,
                 (unsigned long long)flood_eager.events);
}

TEST(NvmeLazy, EnvKnobParsesAndRejects)
{
    setenv("A4_NVME_LAZY", "off", 1);
    EXPECT_FALSE(SsdConfig::lazyFromEnv());
    setenv("A4_NVME_LAZY", "on", 1);
    EXPECT_TRUE(SsdConfig::lazyFromEnv());
    setenv("A4_NVME_LAZY", "sideways", 1);
    EXPECT_TRUE(SsdConfig::lazyFromEnv()); // rejected whole -> default
    unsetenv("A4_NVME_LAZY");
    EXPECT_TRUE(SsdConfig::lazyFromEnv());
}
