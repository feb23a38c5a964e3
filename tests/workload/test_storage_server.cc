/**
 * @file
 * Determinism/differential suite for the storage-server workload
 * kind (NIC receive -> parse -> NVMe -> NIC transmit): the cross-
 * device request path must satisfy every byte-identity contract at
 * once — NIC burst vs per-packet, NVMe lazy vs per-completion
 * carrier, and `-j1` == `-j4` dispatch — plus
 * the end-to-end service properties the kind exists for.
 *
 * (The cold == checkpoint-restored leg lives in
 * tests/harness/test_checkpoint.cc as the fourth kind of its
 * matrix.)
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/spec.hh"
#include "harness/sweep.hh"
#include "sim/types.hh"

using namespace a4;

namespace
{

/** Set an env var for one test, restoring the old value after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *key, const char *value) : key_(key)
    {
        const char *old = std::getenv(key);
        had_ = old != nullptr;
        old_ = old ? old : "";
        if (value)
            ::setenv(key, value, 1);
        else
            ::unsetenv(key);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(key_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(key_.c_str());
    }

  private:
    std::string key_, old_;
    bool had_ = false;
};

Windows
tinyWindows()
{
    Windows w;
    w.warmup = 2 * kMsec;
    w.measure = 3 * kMsec;
    return w;
}

/** One-workload storage-server point (no antagonist: cheap, and the
 *  cross-device path alone carries every contract under test). */
ScenarioSpec
ssSpec()
{
    ScenarioSpec s;
    s.name = "ss-test";
    s.add("ss", "storage-server", true);
    return s;
}

std::string
runToBlob(const ScenarioSpec &spec)
{
    return toRecord(runSpecWithWindows(spec, tinyWindows()))
        .serialize();
}

} // namespace

TEST(StorageServer, ServesRequestsAcrossBothDevices)
{
    const RegisteredScenario *r = findScenario("storage-server");
    ASSERT_NE(r, nullptr);
    SpecResult res = runSpecWithWindows(r->spec, tinyWindows());
    const SpecWorkloadResult *ss = res.find("ss");
    ASSERT_NE(ss, nullptr);
    EXPECT_EQ(ss->kind, "storage-server");
    EXPECT_TRUE(ss->multithread_io);
    EXPECT_GT(ss->perf, 0.0);          // served requests end to end
    EXPECT_GT(ss->tail_latency_us, 0.0);
    // I/O bytes fold both PCIe ports: NIC reception + responses AND
    // the NVMe block traffic (the cross-device signature).
    EXPECT_GT(ss->ingress_bytes, 0.0);
    EXPECT_GT(ss->egress_bytes, 0.0);
    // The antagonist is a plain fio LPW sharing the LLC.
    const SpecWorkloadResult *fio = res.find("fio");
    ASSERT_NE(fio, nullptr);
    EXPECT_GT(fio->perf, 0.0);
}

TEST(StorageServer, MemFracKnobMovesWorkOntoTheNvmePath)
{
    // mem_frac=1: every GET is served from RAM (only PUTs reach the
    // SSD, and with get_ratio=1 nothing does). mem_frac=0: every GET
    // is an NVMe read. The workload's I/O byte fold covers both PCIe
    // ports, so the all-NVMe point must show the SSD read DMA on top
    // of the identical NIC reception — strictly more ingress bytes —
    // while both points serve requests end to end.
    ScenarioSpec ram = ssSpec();
    applySpecOverride(ram, "ss.mem_frac=1");
    applySpecOverride(ram, "ss.get_ratio=1");
    ScenarioSpec ssd = ssSpec();
    applySpecOverride(ssd, "ss.mem_frac=0");
    applySpecOverride(ssd, "ss.get_ratio=1");

    SpecResult rr = runSpecWithWindows(ram, tinyWindows());
    SpecResult rs = runSpecWithWindows(ssd, tinyWindows());
    const SpecWorkloadResult *wr = rr.find("ss");
    const SpecWorkloadResult *ws = rs.find("ss");
    ASSERT_NE(wr, nullptr);
    ASSERT_NE(ws, nullptr);
    EXPECT_GT(wr->perf, 0.0);
    EXPECT_GT(ws->perf, 0.0);
    EXPECT_GT(ws->ingress_bytes, wr->ingress_bytes);
}

TEST(StorageServer, BurstAndPerPacketModesAreByteIdentical)
{
    ScopedEnv clear("A4_NIC_BURST", nullptr);
    const std::string burst = runToBlob(ssSpec());
    ScopedEnv pp("A4_NIC_BURST", "0");
    EXPECT_EQ(runToBlob(ssSpec()), burst);
}

TEST(StorageServer, LazyAndPerCompletionNvmeAreByteIdentical)
{
    ScopedEnv clear("A4_NVME_LAZY", nullptr);
    const std::string lazy = runToBlob(ssSpec());
    ScopedEnv ev("A4_NVME_LAZY", "0");
    EXPECT_EQ(runToBlob(ssSpec()), lazy);
}

TEST(StorageServer, BothDeferredPathsOffTogetherStaysByteIdentical)
{
    // The two observation-barrier sources interact on this kind (an
    // NVMe completion and a NIC burst can land in the same drain):
    // disabling both at once must still reproduce the default bytes.
    ScopedEnv c1("A4_NIC_BURST", nullptr);
    ScopedEnv c2("A4_NVME_LAZY", nullptr);
    const std::string deferred = runToBlob(ssSpec());
    ScopedEnv pp("A4_NIC_BURST", "0");
    ScopedEnv ev("A4_NVME_LAZY", "0");
    EXPECT_EQ(runToBlob(ssSpec()), deferred);
}

TEST(StorageServer, SeedKnobSelectsADifferentButDeterministicStream)
{
    ScenarioSpec reseeded = ssSpec();
    applySpecOverride(reseeded, "ss.seed=99");
    const std::string base = runToBlob(ssSpec());
    const std::string a = runToBlob(reseeded);
    EXPECT_EQ(runToBlob(reseeded), a);
    EXPECT_NE(a, base);
}

TEST(StorageServer, EnvSeedShiftsTheWholeRunDeterministically)
{
    ScopedEnv clear("A4_SEED", nullptr);
    const std::string base = runToBlob(ssSpec());
    {
        ScopedEnv seed("A4_SEED", "5");
        const std::string a = runToBlob(ssSpec());
        EXPECT_EQ(runToBlob(ssSpec()), a);
        EXPECT_NE(a, base);
    }
    EXPECT_EQ(runToBlob(ssSpec()), base);
}

// ----------------------------------------------------------------
// Dispatch byte-identity: -j1 == -j4

namespace
{

/** A tiny but real storage-server sweep (two block-size points). */
const char *kSsSweepText =
    "sweep = ss_disp\n"
    "record = select\n"
    "base.scheme = Default\n"
    "base.warmup_ns = 1000000\n"
    "base.measure_ns = 2000000\n"
    "base.workload = ss\n"
    "base.ss.kind = storage-server\n"
    "metric = perf: ss.perf\n"
    "metric = p99: ss.lat_p99_us\n"
    "metric = leak: ss.leak\n"
    "axis = b\n"
    "b.key = ss.block_bytes\n"
    "b.values = 65536,131072\n"
    "grid = g\n"
    "g.point = b{b}\n"
    "g.axes = b\n";

/** Drop the nondeterministic wall-clock keys before comparison. */
std::string
stripWall(const std::string &payload)
{
    Record in = Record::deserialize(payload);
    Record out;
    for (const Record::Entry &e : in.entries()) {
        if (e.key == "warmup_s" || e.key == "measure_s")
            continue;
        if (e.is_num)
            out.set(e.key, e.num);
        else
            out.set(e.key, e.str);
    }
    return out.serialize();
}

void
runSsSweep(const SweepSpec &spec, unsigned jobs,
           std::vector<std::string> &out)
{
    SweepOptions opt;
    opt.jobs = jobs;
    Sweep sw("ss_disp", opt);
    expandSweep(spec, sw);
    sw.run();
    out.clear();
    for (const SweepPoint &p : expandSweepSpec(spec, "ss_disp"))
        out.push_back(stripWall(sw.at(p.name).serialize()));
}

} // namespace

TEST(StorageServer, DispatchLanesAreByteIdentical)
{
    const SweepSpec spec = parseSweepSpec(kSsSweepText, "ss_disp");

    std::vector<std::string> serial, forked;
    runSsSweep(spec, 1, serial);
    ASSERT_EQ(serial.size(), 2u);
    runSsSweep(spec, 4, forked);
    EXPECT_EQ(forked, serial);
}
