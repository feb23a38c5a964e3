/**
 * @file
 * Tests for the sweep-runner subsystem: the Record pipe codec and the
 * Sweep grid API over the fork()-per-point Dispatcher (whose own lane
 * and failure tests live in test_dispatch.cc). The load-bearing
 * property is determinism — a parallel run must reproduce the
 * in-process run bit for bit — plus declaration-order reassembly and
 * loud worker-failure propagation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "harness/builders.hh"
#include "harness/experiment.hh"
#include "harness/scenarios.hh"
#include "harness/sweep.hh"

using namespace a4;

namespace
{

SweepOptions
optsWithJobs(unsigned jobs)
{
    SweepOptions o;
    o.jobs = jobs;
    return o;
}

/** A tiny but real simulation point: deterministic per index. */
Record
miniTestbedPoint(std::size_t index)
{
    ServerConfig cfg;
    cfg.scale = 16;
    Testbed bed(cfg);
    CpuStreamWorkload &w =
        addXmem(bed, "xmem", 1 + unsigned(index % 3), 1);
    Windows win;
    win.warmup = 1 * kMsec;
    win.measure = 2 * kMsec;
    Measurement m(bed, {&w}, win);
    m.run();
    Record r;
    r.set("ops", m.opsPerSec(w));
    r.set("ipc", m.ipc(w));
    r.set("hit", m.sample(w).llcHitRate());
    return r;
}

} // namespace

TEST(Record, NumericRoundTripIsExact)
{
    const double values[] = {0.0,
                             -1.5,
                             1.0 / 3.0,
                             6.02214076e23,
                             -4.9e-324, // denormal
                             1.7976931348623157e308,
                             std::numeric_limits<double>::infinity()};
    Record r;
    for (std::size_t i = 0; i < std::size(values); ++i)
        r.set("k" + std::to_string(i), values[i]);
    r.set("nan", std::nan(""));

    Record back = Record::deserialize(r.serialize());
    for (std::size_t i = 0; i < std::size(values); ++i) {
        const std::string key = "k" + std::to_string(i);
        // Bit-exact, not approximately equal.
        EXPECT_EQ(back.num(key), values[i]) << key;
    }
    EXPECT_TRUE(std::isnan(back.num("nan")));

    // An empty numeric field is corrupt, not zero.
    EXPECT_THROW(Record::deserialize("N k \n"), FatalError);
}

TEST(Record, StringAndKeyEscaping)
{
    Record r;
    r.set("plain", "value");
    r.set("with space", "a b\nc%d");
    r.set("num then str", 1.0);
    r.set("num then str", "overwritten");

    Record back = Record::deserialize(r.serialize());
    EXPECT_EQ(back.str("plain"), "value");
    EXPECT_EQ(back.str("with space"), "a b\nc%d");
    EXPECT_EQ(back.str("num then str"), "overwritten");
    EXPECT_FALSE(back.has("absent"));
    EXPECT_THROW(back.num("plain"), FatalError);
    EXPECT_THROW(back.str("absent"), FatalError);

    // '%' takes exactly two hex digits, in values and keys alike.
    for (const char *bad : {"S k a%4zb\n", "S k ab%4\n", "S k%4g v\n"})
        EXPECT_THROW(Record::deserialize(bad), FatalError) << bad;
}

TEST(Record, PreservesEntryOrder)
{
    Record r;
    r.set("z", 1.0);
    r.set("a", 2.0);
    r.set("m", "mid");
    Record back = Record::deserialize(r.serialize());
    ASSERT_EQ(back.entries().size(), 3u);
    EXPECT_EQ(back.entries()[0].key, "z");
    EXPECT_EQ(back.entries()[1].key, "a");
    EXPECT_EQ(back.entries()[2].key, "m");
}

TEST(Sweep, ParallelRunIsBitIdenticalToInProcess)
{
    auto build = [](unsigned jobs) {
        Sweep sw("test", optsWithJobs(jobs));
        for (std::size_t i = 0; i < 6; ++i) {
            sw.add("pt" + std::to_string(i),
                   [i] { return miniTestbedPoint(i); });
        }
        sw.run();
        std::string all;
        for (const std::string &name : sw.names())
            all += name + "\n" + sw.at(name).serialize();
        return all;
    };
    EXPECT_EQ(build(1), build(4));
}

TEST(Sweep, FilterSelectsBySubstring)
{
    SweepOptions opt = optsWithJobs(1);
    opt.filter = "keep";
    Sweep sw("test", opt);
    sw.add("keep/a", [] {
        Record r;
        r.set("v", 1.0);
        return r;
    });
    sw.add("drop/b", [] {
        Record r;
        r.set("v", 2.0);
        return r;
    });
    sw.run();
    EXPECT_NE(sw.find("keep/a"), nullptr);
    EXPECT_EQ(sw.find("drop/b"), nullptr);
    EXPECT_THROW(sw.at("drop/b"), FatalError);
    EXPECT_THROW(sw.find("no-such-point"), FatalError);
    EXPECT_EQ(sw.at("keep/a").num("v"), 1.0);
}

TEST(Sweep, RejectsDuplicatePointsAndDoubleRun)
{
    Sweep sw("test", optsWithJobs(1));
    sw.add("p", [] { return Record(); });
    EXPECT_THROW(sw.add("p", [] { return Record(); }), FatalError);
    sw.run();
    EXPECT_THROW(sw.run(), FatalError);
    EXPECT_THROW(sw.add("q", [] { return Record(); }), FatalError);
}

TEST(Sweep, WriteJsonEmitsAllPoints)
{
    const std::string path = "test_sweep_out.json";
    SweepOptions opt = optsWithJobs(2);
    Sweep sw("jsonbench", opt);
    sw.add("p0", [] {
        Record r;
        r.set("metric", 0.5);
        r.set("label", "x\"y");
        return r;
    });
    sw.add("p1", [] {
        Record r;
        r.set("metric", std::numeric_limits<double>::infinity());
        return r;
    });
    sw.run();
    sw.writeJson(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());

    EXPECT_NE(body.find("\"bench\": \"jsonbench\""), std::string::npos);
    EXPECT_NE(body.find("\"schema_version\": 1"), std::string::npos);
    // The recorded worker count is what run() actually used, clamped
    // to the number of selected points.
    EXPECT_NE(body.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(body.find("\"name\": \"p0\""), std::string::npos);
    EXPECT_NE(body.find("\"metric\": 0.5"), std::string::npos);
    EXPECT_NE(body.find("x\\\"y"), std::string::npos);
    // Non-finite numbers must not leak into JSON.
    EXPECT_EQ(body.find("inf"), std::string::npos);
    EXPECT_NE(body.find("\"metric\": null"), std::string::npos);
}

TEST(SweepOptions, CliParsing)
{
    const char *argv[] = {"bench",          "--jobs",  "3",
                          "--filter=dca-on", "--json", "out.json"};
    SweepOptions o = SweepOptions::parse(
        "bench", int(std::size(argv)), const_cast<char **>(argv));
    EXPECT_EQ(o.jobs, 3u);
    EXPECT_EQ(o.filter, "dca-on");
    EXPECT_EQ(o.json_path, "out.json");
    EXPECT_FALSE(o.list);
    EXPECT_EQ(o.effectiveJobs(), 3u);

    const char *argv2[] = {"bench", "-j4", "--list", "--burst", "0"};
    SweepOptions o2 = SweepOptions::parse(
        "bench", int(std::size(argv2)), const_cast<char **>(argv2));
    EXPECT_EQ(o2.jobs, 4u);
    EXPECT_TRUE(o2.list);
    EXPECT_EQ(o2.burst, "0");
    EXPECT_TRUE(o.burst.empty()); // untouched when not passed
}

TEST(SweepOptions, EffectiveJobsHonoursEnv)
{
    const char *saved = std::getenv("A4_JOBS");
    std::string saved_val = saved ? saved : "";

    setenv("A4_JOBS", "7", 1);
    EXPECT_EQ(SweepOptions{}.effectiveJobs(), 7u);

    setenv("A4_JOBS", "zero-cores", 1);
    EXPECT_GE(SweepOptions{}.effectiveJobs(), 1u);

    unsetenv("A4_JOBS");
    EXPECT_GE(SweepOptions{}.effectiveJobs(), 1u);

    if (saved)
        setenv("A4_JOBS", saved_val.c_str(), 1);
}
