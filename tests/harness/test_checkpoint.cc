/**
 * @file
 * Warm-up checkpoint store (harness/checkpoint.hh): a restored run
 * must be bit-identical to a cold run — per workload kind (NIC-,
 * NVMe-, and CPU-driven), for a fig08-style multi-workload A4 point,
 * and through the fork()-per-point sweep path — measure-window
 * variants must share one image, corrupt images must fall back to a
 * cold run with identical values, and the key must name the running
 * executable.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "harness/checkpoint.hh"
#include "harness/scenarios.hh"
#include "harness/spec.hh"
#include "harness/sweep.hh"
#include "net/frame.hh"
#include "sim/log.hh"

using namespace a4;

namespace fs = std::filesystem;

namespace
{

Windows
tinyWindows()
{
    Windows w;
    w.warmup = 2 * kMsec;
    w.measure = 3 * kMsec;
    return w;
}

/** Temporary checkpoint directory, removed on scope exit. */
struct TmpDir
{
    std::string path;

    TmpDir()
    {
        char tmpl[] = "/tmp/a4ckptXXXXXX";
        path = mkdtemp(tmpl);
    }

    ~TmpDir() { fs::remove_all(path); }

    std::size_t
    images() const
    {
        std::size_t n = 0;
        for (const auto &e : fs::directory_iterator(path))
            n += e.path().extension() == ".ckpt";
        return n;
    }
};

/** Scoped $A4_CKPT_DIR (empty string = force-disabled). */
struct CkptDirGuard
{
    explicit CkptDirGuard(const std::string &dir)
    {
        setenv("A4_CKPT_DIR", dir.c_str(), 1);
    }

    ~CkptDirGuard() { unsetenv("A4_CKPT_DIR"); }
};

std::string
runToBlob(const ScenarioSpec &spec, const Windows &win)
{
    return toRecord(runSpecWithWindows(spec, win)).serialize();
}

/** Cold baseline, then a saving run and a restoring run under
 *  @p dir: all three must serialize bit-identically. */
void
expectRoundTrip(const ScenarioSpec &spec, const Windows &win,
                const std::string &label)
{
    unsetenv("A4_CKPT_DIR");
    const std::string cold = runToBlob(spec, win);

    TmpDir dir;
    CkptDirGuard env(dir.path);
    EXPECT_EQ(runToBlob(spec, win), cold) << label << ": saving run";
    ASSERT_EQ(dir.images(), 1u) << label;
    EXPECT_EQ(runToBlob(spec, win), cold) << label << ": restored run";
}

/** One-workload spec of @p kind (NIC / NVMe / CPU driven). */
ScenarioSpec
kindSpec(const std::string &kind)
{
    ScenarioSpec s;
    s.name = "ckpt-" + kind;
    s.add("w", kind, true);
    return s;
}

/** Fig. 8-style point: NIC HPW with DCA disabled against a storage
 *  antagonist and a cache-hungry CPU tenant, under the A4 daemon. */
ScenarioSpec
fig08StyleSpec()
{
    ScenarioSpec s;
    s.name = "ckpt-fig08";
    s.scheme = Scheme::A4d;
    s.add("dpdk", "dpdk", true).dca = false;
    s.add("fio", "fio", false);
    s.add("xmem", "xmem", true);
    return s;
}

} // namespace

TEST(Checkpoint, NicDrivenRestoredRunIsBitIdentical)
{
    expectRoundTrip(kindSpec("dpdk"), tinyWindows(), "dpdk");
}

TEST(Checkpoint, NvmeDrivenRestoredRunIsBitIdentical)
{
    expectRoundTrip(kindSpec("fio"), tinyWindows(), "fio");
}

TEST(Checkpoint, CpuOnlyRestoredRunIsBitIdentical)
{
    expectRoundTrip(kindSpec("xmem"), tinyWindows(), "xmem");
}

TEST(Checkpoint, CrossDeviceStorageServerRestoredRunIsBitIdentical)
{
    // NIC- and NVMe-driven at once: in-flight NVMe commands carry
    // IoTags whose resolver lives in the workload, and the NIC rings
    // hold undelivered packets — both must round-trip.
    expectRoundTrip(kindSpec("storage-server"), tinyWindows(),
                    "storage-server");
}

TEST(Checkpoint, Fig08StyleA4PointRestoredRunIsBitIdentical)
{
    expectRoundTrip(fig08StyleSpec(), tinyWindows(), "fig08-style");
}

TEST(Checkpoint, MeasureWindowVariantsShareOneImage)
{
    // The key text strips the measure window, so a point swept only
    // on the measurement knob restores from the sibling's image.
    const ScenarioSpec spec = fig08StyleSpec();
    Windows w1 = tinyWindows();
    Windows w2 = tinyWindows();
    w2.measure = 4 * kMsec;
    ASSERT_EQ(checkpointKeyText(spec, w1.warmup),
              checkpointKeyText(spec, w2.warmup));

    unsetenv("A4_CKPT_DIR");
    const std::string cold2 = runToBlob(spec, w2);

    TmpDir dir;
    CkptDirGuard env(dir.path);
    runToBlob(spec, w1); // saves the shared warm-up image
    ASSERT_EQ(dir.images(), 1u);
    EXPECT_EQ(runToBlob(spec, w2), cold2);
    EXPECT_EQ(dir.images(), 1u); // reused, not duplicated
}

TEST(Checkpoint, KeyCarriesTheExecutableHashAsBuildTag)
{
    // The build tag is the FNV-1a-64 of the running executable, so a
    // rebuilt simulator keys every image differently.
    std::ifstream in("/proc/self/exe", std::ios::binary);
    std::ostringstream exe;
    exe << in.rdbuf();
    ASSERT_FALSE(exe.str().empty());
    const std::string want = sformat(
        "%016llx", static_cast<unsigned long long>(fnv1a64(exe.str())));
    EXPECT_EQ(buildTag(), want);
    EXPECT_EQ(buildTag(), buildTag());
    const std::string key =
        checkpointKeyText(fig08StyleSpec(), tinyWindows().warmup);
    EXPECT_NE(key.find("\nbuild = " + want + "\n"), std::string::npos)
        << key;
}

TEST(Checkpoint, ForkedSweepWorkersRestoreTheSharedImage)
{
    const ScenarioSpec spec = fig08StyleSpec();
    const Windows win = tinyWindows();
    unsetenv("A4_CKPT_DIR");
    const std::string cold = runToBlob(spec, win);

    TmpDir dir;
    CkptDirGuard env(dir.path);
    runToBlob(spec, win); // warm the store before forking
    ASSERT_EQ(dir.images(), 1u);

    SweepOptions opt;
    opt.jobs = 2;
    Sweep sw("ckpt", opt);
    for (const char *name : {"p0", "p1"})
        sw.add(name, [&spec, &win] {
            return toRecord(runSpecWithWindows(spec, win));
        });
    sw.run();
    for (const char *name : {"p0", "p1"}) {
        const Record *r = sw.find(name);
        ASSERT_NE(r, nullptr) << name;
        EXPECT_EQ(r->serialize(), cold) << name;
    }
}

TEST(Checkpoint, CorruptImageFallsBackToIdenticalColdRun)
{
    const ScenarioSpec spec = kindSpec("dpdk");
    const Windows win = tinyWindows();
    unsetenv("A4_CKPT_DIR");
    const std::string cold = runToBlob(spec, win);

    TmpDir dir;
    CkptDirGuard env(dir.path);
    runToBlob(spec, win);
    ASSERT_EQ(dir.images(), 1u);
    for (const auto &e : fs::directory_iterator(dir.path))
        fs::resize_file(e.path(), 64); // truncate mid-key
    EXPECT_EQ(runToBlob(spec, win), cold);
}
