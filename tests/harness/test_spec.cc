/**
 * @file
 * Tests for the declarative scenario layer (harness/spec.hh): the
 * text codec (bit-exact round-trips, line-numbered rejection), the
 * registry, the generic runSpec() runner's byte-identity with the
 * hand-restated figure structs, and determinism of the non-paper
 * mixes under the A4_SEED stream selector.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/spec.hh"
#include "sim/rng.hh"

using namespace a4;

namespace
{

/** Windows small enough for unit-test speed, large enough that every
 *  workload kind makes measurable progress. */
Windows
tinyWindows()
{
    Windows w;
    w.warmup = 2 * kMsec;
    w.measure = 3 * kMsec;
    return w;
}

/** Expect parseSpec(text) to throw with @p needle in the message. */
void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        parseSpec(text, "spec.txt");
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

} // namespace

// --------------------------------------------------------------------
// Codec

TEST(Spec, RegistrySerializeParseRoundTripsBitExactly)
{
    for (const RegisteredScenario &r : scenarioRegistry()) {
        const std::string text = serializeSpec(r.spec);
        ScenarioSpec back = parseSpec(text, r.name);
        EXPECT_EQ(serializeSpec(back), text) << r.name;
    }
}

TEST(Spec, HexFloatKnobsRoundTripBitExactly)
{
    ScenarioSpec s;
    WorkloadSpec &w = s.add("fio", "fio", false);
    w.set("write_mix", 1.0 / 3.0);
    w.set("regex_ns_per_line", 6.02214076e23);
    w.set("block_bytes", std::uint64_t(1) << 40);

    ScenarioSpec back = parseSpec(serializeSpec(s));
    const WorkloadSpec *b = back.findWorkload("fio");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->num("write_mix", 0.0), 1.0 / 3.0);
    EXPECT_EQ(b->num("regex_ns_per_line", 0.0), 6.02214076e23);
    EXPECT_EQ(b->u64("block_bytes", 0), std::uint64_t(1) << 40);
}

TEST(Spec, A4OverrideBlockRoundTrips)
{
    ScenarioSpec s;
    s.add("xmem1", "xmem", true);
    A4Params p;
    p.ant_cache_miss_thr = 0.8125;
    p.monitor_interval = 5 * kMsec;
    p.enable_revert = false;
    p.min_accesses = 123;
    s.a4 = p;

    ScenarioSpec back = parseSpec(serializeSpec(s));
    ASSERT_TRUE(back.a4.has_value());
    EXPECT_EQ(back.a4->ant_cache_miss_thr, 0.8125);
    EXPECT_EQ(back.a4->monitor_interval, 5 * kMsec);
    EXPECT_FALSE(back.a4->enable_revert);
    EXPECT_EQ(back.a4->min_accesses, 123u);
    EXPECT_EQ(serializeSpec(back), serializeSpec(s));
}

TEST(Spec, ParseAcceptsCommentsAndWhitespace)
{
    ScenarioSpec s = parseSpec("# comment\n"
                               "\n"
                               "  scheme = A4-d  \n"
                               "workload = w0\n"
                               "w0.kind = xmem\n"
                               "\t w0.variant = 3 \n");
    EXPECT_EQ(s.scheme, Scheme::A4d);
    ASSERT_EQ(s.workloads.size(), 1u);
    EXPECT_EQ(s.workloads[0].u64("variant", 0), 3u);
}

TEST(Spec, LaterAssignmentsWin)
{
    ScenarioSpec s = parseSpec("workload = w0\n"
                               "w0.kind = xmem\n"
                               "w0.variant = 1\n"
                               "w0.variant = 2\n"
                               "scheme = Isolate\n"
                               "scheme = A4-a\n");
    EXPECT_EQ(s.workloads[0].u64("variant", 0), 2u);
    EXPECT_EQ(s.scheme, Scheme::A4a);
}

// --------------------------------------------------------------------
// Rejection: every error names the offending line.

TEST(Spec, RejectsUnknownKnobNamingLine)
{
    expectParseError("workload = dpdk0\n"
                     "dpdk0.kind = dpdk\n"
                     "dpdk0.pkt_bytes = 64\n",
                     "spec.txt:3: unknown knob 'dpdk0.pkt_bytes'");
}

TEST(Spec, RejectsMalformedValueNamingLine)
{
    expectParseError("workload = dpdk0\n"
                     "dpdk0.kind = dpdk\n"
                     "dpdk0.packet_bytes = sixty-four\n",
                     "spec.txt:3: bad value 'sixty-four'");
}

TEST(Spec, RejectsUnknownTopLevelKey)
{
    expectParseError("wrkload = dpdk0\n", "spec.txt:1: unknown key");
}

TEST(Spec, RejectsUnknownKind)
{
    expectParseError("workload = w\nw.kind = gpu\n",
                     "spec.txt:2: unknown kind 'gpu'");
}

TEST(Spec, RejectsMissingKind)
{
    expectParseError("workload = w\nw.hpw = 1\n",
                     "workload 'w' has no kind");
}

TEST(Spec, RejectsUndeclaredWorkloadScope)
{
    expectParseError("ghost.kind = fio\n",
                     "spec.txt:1: workload 'ghost' not declared");
}

TEST(Spec, RejectsDuplicateWorkload)
{
    expectParseError("workload = w\nw.kind = fio\nworkload = w\n",
                     "spec.txt:3: duplicate workload 'w'");
}

TEST(Spec, RejectsBadScheme)
{
    expectParseError("scheme = A4-z\n", "spec.txt:1: unknown scheme");
}

TEST(Spec, RejectsBadPinAndBadA4Field)
{
    expectParseError("workload = w\nw.kind = fio\nw.pin = 5:2\n",
                     "spec.txt:3: bad value '5:2'");
    expectParseError("a4.t9 = 0.5\n",
                     "spec.txt:1: unknown A4 parameter 'a4.t9'");
    expectParseError("a4.t5 = hot\n", "spec.txt:1: bad value 'hot'");
}

TEST(Spec, OverrideAppliesAndValidates)
{
    ScenarioSpec s = microSpec(1024, 2 * kMiB);
    applySpecOverride(s, "dpdk-t.packet_bytes=256");
    EXPECT_EQ(s.findWorkload("dpdk-t")->u64("packet_bytes", 0), 256u);
    applySpecOverride(s, "scheme=Isolate");
    EXPECT_EQ(s.scheme, Scheme::Isolate);
    EXPECT_THROW(applySpecOverride(s, "dpdk-t.bogus=1"), FatalError);
    EXPECT_THROW(applySpecOverride(s, "no-equals"), FatalError);
}

// --------------------------------------------------------------------
// Registry

TEST(Spec, RegistryHasCanonicalAndNonPaperMixes)
{
    EXPECT_GE(scenarioRegistry().size(), 6u);
    for (const char *name :
         {"micro", "realworld-hpw", "realworld-lpw", "trident",
          "dual-nic", "storage-flood"}) {
        const RegisteredScenario *r = findScenario(name);
        ASSERT_NE(r, nullptr) << name;
        EXPECT_FALSE(r->description.empty()) << name;
        EXPECT_FALSE(r->spec.workloads.empty()) << name;
    }
    EXPECT_EQ(findScenario("no-such-mix"), nullptr);
}

TEST(Spec, KindMetadata)
{
    EXPECT_TRUE(kindMultithreadIo("fio"));
    EXPECT_TRUE(kindMultithreadIo("fastclick"));
    EXPECT_FALSE(kindMultithreadIo("xmem"));
    EXPECT_FALSE(kindMultithreadIo("redis-server"));
    EXPECT_THROW(kindMultithreadIo("gpu"), FatalError);
    EXPECT_GE(workloadKinds().size(), 7u);
}

// --------------------------------------------------------------------
// runSpec: the scenario runner path (canonical spec + scheme ->
// runSpecWithWindows -> figure-struct view), and codecs.

TEST(Spec, MicroSpecMatchesLegacyRunnerBitExactly)
{
    // The fig11 1024 B / 2 MiB point at compressed windows: the
    // runner path (microResultFromSpec over microSpec with the scheme
    // set) and a spec that went through the text codec, restated by
    // hand, must produce bit-identical Records.
    const Windows win = tinyWindows();

    ScenarioSpec direct = microSpec(1024, 2 * kMiB);
    direct.scheme = Scheme::Default;
    const MicroResult runner =
        microResultFromSpec(runSpecWithWindows(direct, win));

    ScenarioSpec spec = parseSpec(serializeSpec(microSpec(1024, 2 * kMiB)));
    SpecResult sr = runSpecWithWindows(spec, win);

    MicroResult from_spec;
    for (unsigned v = 0; v < 3; ++v) {
        const SpecWorkloadResult *x =
            sr.find(sformat("xmem%u", v + 1));
        ASSERT_NE(x, nullptr);
        from_spec.xmem_ipc[v] = x->ipc;
        from_spec.xmem_hit[v] = x->llc_hit_rate;
    }
    const SpecWorkloadResult *dpdk = sr.find("dpdk-t");
    ASSERT_NE(dpdk, nullptr);
    from_spec.net_tail_us = dpdk->tail_latency_us;
    from_spec.net_rd_gbps = dpdk->ingress_bytes * 1e9 /
                            double(win.measure) * sr.scale / 1e9;
    from_spec.past_events = sr.past_events;

    EXPECT_EQ(toRecord(runner).serialize(),
              toRecord(from_spec).serialize());
}

TEST(Spec, RealWorldSpecMatchesLegacyRunnerBitExactly)
{
    // A fig13 point (HPW-heavy, Default) at compressed windows: the
    // runner path (scenarioResultFromSpec over realWorldSpec with the
    // scheme set) vs the text-codec round-tripped spec, restated by
    // hand.
    const Windows win = tinyWindows();

    ScenarioSpec direct = realWorldSpec(true);
    direct.scheme = Scheme::Default;
    const ScenarioResult runner =
        scenarioResultFromSpec(runSpecWithWindows(direct, win));

    ScenarioSpec spec = parseSpec(serializeSpec(realWorldSpec(true)));
    SpecResult sr = runSpecWithWindows(spec, win);

    ASSERT_EQ(sr.workloads.size(), runner.workloads.size());
    for (std::size_t i = 0; i < sr.workloads.size(); ++i) {
        const SpecWorkloadResult &w = sr.workloads[i];
        const WorkloadResult &l = runner.workloads[i];
        EXPECT_EQ(w.name, l.name);
        EXPECT_EQ(w.hpw, l.hpw);
        EXPECT_EQ(w.multithread_io, l.multithread_io);
        EXPECT_EQ(w.perf, l.perf) << w.name;
        EXPECT_EQ(w.llc_hit_rate, l.llc_hit_rate) << w.name;
        EXPECT_EQ(w.tail_latency_us, l.tail_latency_us) << w.name;
    }
    const SpecWorkloadResult *fc = sr.find("fastclick");
    ASSERT_NE(fc, nullptr);
    EXPECT_EQ(fc->nic_to_host_ns / 1000.0, runner.fc_nic_to_host_us);
    const double to_gbps = 1e9 / double(win.measure) * sr.scale / 1e9;
    EXPECT_EQ(fc->ingress_bytes * to_gbps, runner.fc_rd_gbps);
    EXPECT_EQ(sr.past_events, runner.past_events);
}

TEST(Spec, SpecResultRecordRoundTrips)
{
    ScenarioSpec spec = microSpec(1024, 2 * kMiB);
    SpecResult r = runSpecWithWindows(spec, tinyWindows());
    SpecResult back = specResultFrom(toRecord(r));
    EXPECT_EQ(toRecord(back).serialize(), toRecord(r).serialize());
    ASSERT_EQ(back.workloads.size(), r.workloads.size());
    EXPECT_EQ(back.workloads[0].kind, r.workloads[0].kind);
    EXPECT_EQ(back.measure_window, r.measure_window);
    EXPECT_EQ(back.scale, r.scale);
}

TEST(Spec, RunSpecRejectsEmptyAndInvalidSpecs)
{
    ScenarioSpec empty;
    EXPECT_THROW(runSpecWithWindows(empty, tinyWindows()), FatalError);

    ScenarioSpec bad;
    bad.add("w", "fio", false).set("bogus_knob", std::uint64_t(1));
    EXPECT_THROW(runSpecWithWindows(bad, tinyWindows()), FatalError);
}

TEST(Spec, RedisClientRequiresServerBuiltFirst)
{
    ScenarioSpec s;
    WorkloadSpec &c = s.add("redis-c", "redis-client", true);
    c.set("server", std::string("redis-s"));
    // Client listed (and built) before the server: must fail loudly.
    s.add("redis-s", "redis-server", true);
    EXPECT_THROW(runSpecWithWindows(s, tinyWindows()), FatalError);
}

// --------------------------------------------------------------------
// Non-paper mixes: determinism under the seed knob.

namespace
{

std::string
runRegistered(const char *name, const Windows &win)
{
    const RegisteredScenario *r = findScenario(name);
    EXPECT_NE(r, nullptr);
    return toRecord(runSpecWithWindows(r->spec, win)).serialize();
}

} // namespace

TEST(Spec, NewMixesAreDeterministicPerSeed)
{
    Windows win;
    win.warmup = 1 * kMsec;
    win.measure = 2 * kMsec;

    for (const char *name : {"trident", "dual-nic", "storage-flood"}) {
        setenv("A4_SEED", "12345", 1);
        const std::string a = runRegistered(name, win);
        const std::string b = runRegistered(name, win);
        EXPECT_EQ(a, b) << name << ": same spec + seed must reproduce "
                                   "identical Records";
        unsetenv("A4_SEED");
        const std::string c = runRegistered(name, win);
        const std::string d = runRegistered(name, win);
        EXPECT_EQ(c, d) << name;
    }
}

TEST(Spec, SeedKnobSelectsADifferentStream)
{
    Windows win;
    win.warmup = 1 * kMsec;
    win.measure = 2 * kMsec;

    // dual-nic is all-Poisson traffic: a different seed must change
    // the arrival streams (and therefore the Records).
    unsetenv("A4_SEED");
    const std::string base = runRegistered("dual-nic", win);
    setenv("A4_SEED", "99", 1);
    const std::string seeded = runRegistered("dual-nic", win);
    unsetenv("A4_SEED");
    EXPECT_NE(base, seeded);

    // And the default stream is the unset stream: A4_SEED=0 is the
    // documented identity.
    setenv("A4_SEED", "0", 1);
    const std::string zero = runRegistered("dual-nic", win);
    unsetenv("A4_SEED");
    EXPECT_EQ(base, zero);
}

TEST(Spec, MixSeedIdentityAndEnvParsing)
{
    unsetenv("A4_SEED");
    EXPECT_EQ(envSeed(), 0u);
    EXPECT_EQ(mixSeed(42), 42u);

    setenv("A4_SEED", "7", 1);
    EXPECT_EQ(envSeed(), 7u);
    EXPECT_NE(mixSeed(42), 42u);
    EXPECT_EQ(mixSeed(42), mixSeed(42));
    EXPECT_NE(mixSeed(42), mixSeed(43));

    setenv("A4_SEED", "-3", 1);
    EXPECT_EQ(envSeed(), 0u);
    setenv("A4_SEED", "7x", 1);
    EXPECT_EQ(envSeed(), 0u);
    // strtoull's permissive edges are rejected whole: saturating
    // overflow and whitespace-prefixed negatives.
    setenv("A4_SEED", "18446744073709551616", 1); // 2^64
    EXPECT_EQ(envSeed(), 0u);
    setenv("A4_SEED", " -1", 1);
    EXPECT_EQ(envSeed(), 0u);
    setenv("A4_SEED", "18446744073709551615", 1); // 2^64 - 1: valid
    EXPECT_EQ(envSeed(), 18446744073709551615ull);
    unsetenv("A4_SEED");
}

TEST(Spec, BatchOverridesCanAddAWorkload)
{
    ScenarioSpec s = microSpec(1024, 2 * kMiB);
    applySpecOverrides(s, {"workload=extra", "extra.kind=xmem",
                           "extra.variant=2", "extra.hpw=1"});
    const WorkloadSpec *w = s.findWorkload("extra");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->kind, "xmem");
    EXPECT_TRUE(w->hpw);
    // A batch that leaves the spec invalid still fails as a whole.
    EXPECT_THROW(applySpecOverrides(s, {"workload=ghost"}), FatalError);
}
