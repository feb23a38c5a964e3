/**
 * @file
 * Tests for the declarative sweep layer (SweepSpec): bit-exact codec
 * round-trips, deterministic axis expansion (j1 == j4 through the
 * shared runner), line-numbered rejection of malformed sweeps, and
 * byte-identity of resolved points with the historical hand-wired
 * figure testbeds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/builders.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/scaling.hh"
#include "harness/spec.hh"

using namespace a4;

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

/** Expect parseSweepSpec(text) to throw with @p needle. */
void
expectSweepError(const std::string &text, const std::string &needle)
{
    try {
        parseSweepSpec(text, "sweep.txt");
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

/** A minimal valid sweep skeleton to append broken lines to. */
const char *const kSkeleton =
    "sweep = smoke\n"
    "record = select\n"
    "base.scheme = Static\n"
    "base.workload = fio\n"
    "base.fio.kind = fio\n"
    "base.fio.pin = 2:3\n"
    "metric = gbps: fio.io_rd_gbps\n"
    "axis = dca\n"
    "dca.key = dca\n"
    "dca.values = 1,0\n"
    "grid = main\n"
    "main.point = d{dca}\n"
    "main.axes = dca\n";

/** The expanded point spec of @p sweep named @p point. */
ScenarioSpec
pointSpec(const std::string &sweep, const std::string &point)
{
    const RegisteredSweep *r = findSweep(sweep);
    EXPECT_NE(r, nullptr) << sweep;
    for (SweepPoint &p : expandSweepSpec(r->spec, sweep)) {
        if (p.name == point)
            return std::move(p.spec);
    }
    ADD_FAILURE() << sweep << ": no point '" << point << "'";
    return {};
}

} // namespace

// --------------------------------------------------------------------
// Codec

TEST(SweepSpec, RegistrySerializeParseRoundTripsBitExactly)
{
    for (const RegisteredSweep &r : sweepRegistry()) {
        const std::string text = serializeSweepSpec(r.spec);
        SweepSpec back = parseSweepSpec(text, r.name);
        EXPECT_EQ(serializeSweepSpec(back), text) << r.name;
    }
}

TEST(SweepSpec, TextEscapesRoundTrip)
{
    SweepSpec s = parseSweepSpec(
        std::string(kSkeleton) +
        "out = text line1\\nline2 with \\\\ backslash\\n");
    ASSERT_EQ(s.outputs.size(), 1u);
    EXPECT_EQ(s.outputs[0].text, "line1\nline2 with \\ backslash\n");
    SweepSpec back = parseSweepSpec(serializeSweepSpec(s));
    EXPECT_EQ(serializeSweepSpec(back), serializeSweepSpec(s));
}

TEST(SweepSpec, RangeExpandsAndRoundTrips)
{
    SweepSpec s = parseSweepSpec(std::string(kSkeleton) +
                                 "axis = q\n"
                                 "q.key = fio.iodepth\n"
                                 "q.range = 2:10:4\n"
                                 "grid = extra\n"
                                 "extra.point = q{q}\n"
                                 "extra.axes = q\n");
    const SweepAxis *q = s.findAxis("q");
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->values,
              (std::vector<std::string>{"2", "6", "10"}));
    // The range survives serialization as a range, not a value list.
    EXPECT_NE(serializeSweepSpec(s).find("q.range = 2:10:4"),
              std::string::npos);
}

// --------------------------------------------------------------------
// Expansion

TEST(SweepSpec, Fig11ExpandsInDeclarationOrder)
{
    const RegisteredSweep *r = findSweep("fig11_xmem_packet_sweep");
    ASSERT_NE(r, nullptr);
    std::vector<std::string> names;
    for (const SweepPoint &p : expandSweepSpec(r->spec, r->name))
        names.push_back(p.name);
    ASSERT_EQ(names.size(), 18u);
    EXPECT_EQ(names[0], "Default/p64B");
    EXPECT_EQ(names[5], "Default/p1514B");
    EXPECT_EQ(names[6], "Isolate/p64B");
    EXPECT_EQ(names[17], "A4-d/p1514B");
}

TEST(SweepSpec, RegistryPointCountsMatchExpansion)
{
    for (const RegisteredSweep &r : sweepRegistry()) {
        EXPECT_EQ(r.spec.pointCount(),
                  expandSweepSpec(r.spec, r.name).size())
            << r.name;
    }
}

TEST(SweepSpec, ParallelExpansionIsByteIdenticalToSerial)
{
    // The whole path a figure bench takes — expandSweep() onto the
    // shared runner — must reassemble bit-identical Records at any
    // worker count (fork + hex-float pipe vs in-process).
    const std::string text = std::string(kSkeleton) +
                             "base.warmup_ns = 2000000\n"
                             "base.measure_ns = 3000000\n"
                             "metric = mem: sys.mem_rd_gbps\n";
    SweepSpec spec = parseSweepSpec(text);

    auto run = [&](unsigned jobs) {
        SweepOptions opt;
        opt.jobs = jobs;
        Sweep sw("smoke", opt);
        expandSweep(spec, sw);
        sw.run();
        std::string out;
        for (const std::string &name : sw.names()) {
            // Drop the host wall-clock diagnostics: genuinely
            // nondeterministic, and excluded from the byte-identity
            // contract (writeJson() keeps them out of "metrics").
            Record r;
            for (const Record::Entry &e : sw.at(name).entries()) {
                if (e.key == "warmup_s" || e.key == "measure_s")
                    continue;
                if (e.is_num)
                    r.set(e.key, e.num);
                else
                    r.set(e.key, e.str);
            }
            out += name + "\n" + r.serialize();
        }
        return out;
    };
    const std::string serial = run(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(run(4), serial);
}

// --------------------------------------------------------------------
// Rejection (line-numbered)

TEST(SweepSpec, RejectsUnknownAxisField)
{
    expectSweepError(std::string(kSkeleton) + "dca.bogus = 1\n",
                     "sweep.txt:14: unknown axis key 'dca.bogus'");
}

TEST(SweepSpec, RejectsUnknownOverrideKeyAtTheAxisLine)
{
    // The axis *key* targets an unknown knob: rejected when the
    // sweep resolves its points, naming the axis's declaring line
    // (line 14 = "axis = bad").
    expectSweepError(std::string(kSkeleton) + "axis = bad\n"
                                              "bad.key = fio.warp\n"
                                              "bad.values = 1\n"
                                              "grid = g2\n"
                                              "g2.point = w{bad}\n"
                                              "g2.axes = bad\n",
                     "sweep.txt:14: unknown knob 'fio.warp'");
}

TEST(SweepSpec, RejectsMalformedRanges)
{
    const std::string base = std::string(kSkeleton) + "axis = r\n"
                                                      "r.key = dca\n";
    expectSweepError(base + "r.range = 5:1\n", "bad range '5:1'");
    expectSweepError(base + "r.range = 1:x\n", "bad range '1:x'");
    expectSweepError(base + "r.range = 1:2:0\n", "bad range '1:2:0'");
    expectSweepError(base + "r.range = 0:100000\n",
                     "more than 10000 values");
    expectSweepError(base + "r.range = 5\n", "bad range '5'");
}

TEST(SweepSpec, RejectsLabelCountMismatch)
{
    expectSweepError(std::string(kSkeleton) + "dca.labels = just-one\n",
                     "2 values but 1 labels");
}

TEST(SweepSpec, RejectsUnknownRecordView)
{
    expectSweepError("sweep = s\nrecord = tables\n",
                     "sweep.txt:2: unknown record view 'tables'");
}

TEST(SweepSpec, RejectsUnknownPlaceholderAndUnboundAxis)
{
    expectSweepError(std::string(kSkeleton) +
                         "grid = g2\n"
                         "g2.point = {ghost}\n",
                     "unknown axis 'ghost'");
    expectSweepError(std::string(kSkeleton) +
                         "grid = g2\n"
                         "g2.point = {dca}\n",
                     "axis 'dca' is not bound here");
}

TEST(SweepSpec, RejectsDuplicatePointNames)
{
    expectSweepError(std::string(kSkeleton) + "grid = g2\n"
                                              "g2.point = d1\n",
                     "duplicate point name 'd1'");
}

TEST(SweepSpec, RejectsUnknownMetricExpression)
{
    expectSweepError(std::string(kSkeleton) +
                         "metric = x: fio.warp_factor\n",
                     "sweep.txt:14: metric 'x'");
}

TEST(SweepSpec, RejectsBadCellsAndBindings)
{
    const std::string table = std::string(kSkeleton) +
                              "out = table\n"
                              "headers = a\n"
                              "block = main\n"
                              "axes = dca\n";
    expectSweepError(table + "cell = wat gbps\n",
                     "unknown cell op 'wat'");
    expectSweepError(table + "cell = num gbps 3 @dca=7\n",
                     "axis 'dca' has no value '7'");
    expectSweepError(table + "cell = num gbps\ncell = num gbps\n",
                     "2 cells for 1 headers");
}

TEST(SweepSpec, RejectsRenderProblemsAtValidationTime)
{
    // Everything the renderer would only hit after the whole sweep
    // has run must reject up front instead.
    const std::string table = std::string(kSkeleton) +
                              "out = table\n"
                              "headers = a\n"
                              "block = main\n"
                              "axes = dca\n";
    expectSweepError(table + "cell = num ghost\n",
                     "no metric 'ghost' in the records of grid 'main'");
    expectSweepError(table + "ref = main dca=1\ncell = agg all\n",
                     "agg needs record = scenario");
    expectSweepError(std::string(kSkeleton) +
                         "out = workload_table\n"
                         "wt_grid = main\n",
                     "workload_table needs record = scenario");
    expectSweepError(std::string(kSkeleton) + "out = note\n"
                                              "note_point = ghost\n"
                                              "note_text = x\\n",
                     "note: no point named 'ghost'");
    expectSweepError(std::string(kSkeleton) +
                         "out = note\n"
                         "note_point = d1\n"
                         "note_text = v = {ghost:3}\\n",
                     "note: no metric 'ghost'");
    expectSweepError(std::string(kSkeleton) +
                         "out = note\n"
                         "note_point = d1\n"
                         "note_text = v = {gbps}\\n",
                     "bad note placeholder");
}

TEST(SweepSpec, OverrideErasingALabelSetRejectsBeforeRunning)
{
    // fig03's table renders {x:mask}; shrinking x.values drops the
    // size-mismatched mask label set, which must fail validation in
    // applySweepOverrides — not after every point has simulated.
    SweepSpec spec = findSweep("fig03_contention")->spec;
    try {
        applySweepOverrides(spec, {"x.values=0:1,5:6"});
        FAIL() << "expected FatalError about the dropped label set";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no label set 'mask'"),
                  std::string::npos)
            << "actual message: " << e.what();
    }
    // Overriding the label set alongside the values is accepted.
    SweepSpec ok = findSweep("fig03_contention")->spec;
    applySweepOverrides(ok, {"x.values=0:1,5:6",
                             "x.labels.mask=0x600,0x030"});
    EXPECT_EQ(expandSweepSpec(ok, "t").size(), 4u);
}

TEST(SweepSpec, OverridesRedefineAxesAndBase)
{
    SweepSpec spec = parseSweepSpec(kSkeleton);
    applySweepOverrides(spec, {"dca.values=1", "base.fio.iodepth=64"});
    EXPECT_EQ(spec.findAxis("dca")->values,
              std::vector<std::string>{"1"});
    EXPECT_EQ(spec.base.findWorkload("fio")->u64("iodepth", 0), 64u);
    EXPECT_EQ(expandSweepSpec(spec, "t").size(), 1u);
    EXPECT_THROW(applySweepOverrides(spec, {"ghost.values=1"}),
                 FatalError);
    EXPECT_THROW(applySweepOverrides(spec, {"base.fio.bogus=1"}),
                 FatalError);
}

// --------------------------------------------------------------------
// Resolved points == the historical hand-wired testbeds

TEST(SweepSpec, Fig05PointMatchesHandWiredTestbed)
{
    // Sweep side: the registered fig05 point at 64 KiB, DCA off.
    const ScenarioSpec spec =
        pointSpec("fig05_storage_dca", "block=64KB/dca-off");
    SpecResult sr = runSpecWithWindows(spec, tinyWindows());

    // Hand side: the pre-refactor bench/fig05 runPoint(), verbatim.
    Testbed bed;
    bed.ddio().setBiosDca(false);
    FioWorkload &fio = addFio(bed, "fio", 64 * kKiB);
    pinWays(bed, fio, 1, 2, 3);
    Measurement m(bed, {&fio}, tinyWindows());
    m.run();
    WorkloadSample s = m.sample(fio);
    SystemSample sys = m.system();
    const unsigned scale = bed.config().scale;

    EXPECT_EQ(evalSweepMetric(sr, "fio.io_rd_gbps"),
              unscaleBw(double(sys.ports[fio.ioPort()].ingress_bytes) *
                            1e9 / double(m.windows().measure),
                        scale) /
                  1e9);
    EXPECT_EQ(evalSweepMetric(sr, "sys.mem_rd_gbps"),
              unscaleBw(sys.memReadBwBps(), scale) / 1e9);
    EXPECT_EQ(evalSweepMetric(sr, "fio.leak"), s.dcaMissRate());
}

TEST(SweepSpec, Fig03PointMatchesHandWiredTestbed)
{
    // Sweep side: Fig. 3b, X-Mem at way[5:6] (DMA-bloat group).
    const ScenarioSpec spec = pointSpec("fig03_contention", "b/x[5:6]");
    SpecResult sr = runSpecWithWindows(spec, tinyWindows());

    // Hand side: the pre-refactor bench/fig03 runPoint(), verbatim —
    // including the manual CAT programming the Static scheme now
    // reproduces.
    ServerConfig cfg = ServerConfig::fast();
    Testbed bed(cfg);
    Nic &nic = bed.addNic(NicConfig{});
    auto dpdk = std::make_unique<DpdkWorkload>(
        "dpdk-t", bed.allocWorkloadId(), bed.allocCores(4),
        bed.engine(), bed.cache(), nic,
        scaledDpdkConfig(cfg.scale, true));
    DpdkWorkload &dpdk_ref = bed.adopt(std::move(dpdk));
    CpuStreamConfig xc = scaledCpuStream(xmemConfig(1), cfg.scale);
    auto xmem = std::make_unique<CpuStreamWorkload>(
        "xmem", bed.allocWorkloadId(), bed.allocCores(2), bed.engine(),
        bed.cache(), bed.addrs(), xc);
    CpuStreamWorkload &xmem_ref = bed.adopt(std::move(xmem));
    bed.cat().setClosMask(1, CatController::makeMask(5, 6));
    for (CoreId c : dpdk_ref.cores())
        bed.cat().assignCore(c, 1);
    bed.cat().setClosMask(2, CatController::makeMask(5, 6));
    for (CoreId c : xmem_ref.cores())
        bed.cat().assignCore(c, 2);
    Measurement m(bed, {&dpdk_ref, &xmem_ref}, tinyWindows());
    m.run();

    EXPECT_EQ(evalSweepMetric(sr, "sys.mem_rd_gbps"),
              unscaleBw(m.system().memReadBwBps(), cfg.scale) / 1e9);
    EXPECT_EQ(evalSweepMetric(sr, "xmem.mpa"),
              m.sample(xmem_ref).missesPerAccess());
    EXPECT_EQ(evalSweepMetric(sr, "dpdk.miss"),
              m.sample(dpdk_ref).llcMissRate());
}

TEST(SweepSpec, Fig11PointMatchesRunMicroScenario)
{
    const ScenarioSpec spec =
        pointSpec("fig11_xmem_packet_sweep", "A4-d/p256B");
    const Record via_sweep =
        toRecord(microResultFromSpec(runSpecWithWindows(spec,
                                                        tinyWindows())));

    // The same point spelt directly: the canonical micro spec with
    // the scheme set, through the runner path.
    ScenarioSpec spec_direct = microSpec(256, 2 * kMiB);
    spec_direct.scheme = Scheme::A4d;
    const Record direct = toRecord(microResultFromSpec(
        runSpecWithWindows(spec_direct, tinyWindows())));
    EXPECT_EQ(via_sweep.serialize(), direct.serialize());
}
