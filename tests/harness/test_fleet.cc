/**
 * @file
 * Tests for the fleet-scale multi-tenant subsystem: the fleet
 * aggregate metrics (harness/fleet.hh), the `replicate =` tenant
 * expansion (expandReplicas), the IOCA-style CLOS grouping pass
 * under exhaustion (groupTenants + A4Manager::per_tenant_clos), and
 * the fleet aggregates riding the sweep-pipe Record codec.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/a4.hh"
#include "harness/fleet.hh"
#include "harness/spec.hh"
#include "mem/dram.hh"
#include "sim/rng.hh"

using namespace a4;

// --------------------------------------------------------------------
// Jain fairness index and p99 edges

TEST(FleetMath, JainIndexEdges)
{
    EXPECT_EQ(jainIndex({}), 0.0);
    EXPECT_EQ(jainIndex({0.0, 0.0}), 0.0);
    EXPECT_EQ(jainIndex({7.5}), 1.0);
    EXPECT_EQ(jainIndex({3.0, 3.0, 3.0, 3.0}), 1.0);

    // One of n starved to zero: index = (n-1)/n.
    EXPECT_DOUBLE_EQ(jainIndex({1.0, 1.0, 1.0, 0.0}), 3.0 / 4.0);
    // k of n split the capacity, the rest starve: index = k/n.
    EXPECT_DOUBLE_EQ(jainIndex({2.0, 2.0, 0.0, 0.0}), 2.0 / 4.0);
}

TEST(FleetMath, P99ByRank)
{
    EXPECT_EQ(p99Of({}), 0.0);
    EXPECT_EQ(p99Of({42.0}), 42.0);
    EXPECT_EQ(p99Of({5.0, 1.0}), 5.0); // ceil(0.99*2) = 2 -> max

    // 100 samples: rank ceil(99) = 99 -> the 99th smallest.
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i)
        xs.push_back(double(i));
    EXPECT_EQ(p99Of(xs), 99.0);

    // 200 samples: rank ceil(198) = 198.
    for (int i = 101; i <= 200; ++i)
        xs.push_back(double(i));
    EXPECT_EQ(p99Of(xs), 198.0);
}

TEST(FleetMath, KindP99LookupDefaultsToZero)
{
    FleetMetrics m;
    m.kind_p99_us.emplace_back("fio", 12.0);
    EXPECT_EQ(m.kindP99("fio"), 12.0);
    EXPECT_EQ(m.kindP99("memcached-udp"), 0.0);
}

// --------------------------------------------------------------------
// Tenant seed streams

TEST(FleetSeeds, ReplicaStreamsAreDisjointAndAnchored)
{
    // Replica 0 keeps the base stream (replicate=1 degenerates to
    // the unreplicated entry); other replicas decorrelate.
    EXPECT_EQ(tenantSeed(9, 0), 9u);
    std::vector<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t s = tenantSeed(9, i);
        for (std::uint64_t o : seen)
            EXPECT_NE(s, o) << "replica " << i;
        seen.push_back(s);
    }
}

// --------------------------------------------------------------------
// expandReplicas

namespace
{

/** A small replicated LPW fleet behind one HPW frontend. */
ScenarioSpec
fleetSpec(unsigned replicas)
{
    ScenarioSpec s;
    s.cores = 16;
    WorkloadSpec &fe = s.add("fe", "memcached-udp", true);
    fe.set("num_queues", std::uint64_t(1));
    fe.set("offered_gbps", 2.0);
    fe.set("num_keys", std::uint64_t(2048));
    WorkloadSpec &mc = s.add("mc", "memcached-udp", false);
    mc.replicate = replicas;
    mc.set("num_queues", std::uint64_t(1));
    mc.set("offered_gbps", 2.0);
    mc.set("num_keys", std::uint64_t(2048));
    mc.set("value_bytes", std::uint64_t(1024));
    mc.set("seed", std::uint64_t(9));
    SpecKnob st;
    st.key = "value_bytes";
    st.value = "16";
    mc.steps.push_back(st);
    return s;
}

Windows
tinyWindows()
{
    Windows w;
    w.warmup = 2 * kMsec;
    w.measure = 3 * kMsec;
    return w;
}

} // namespace

TEST(FleetExpand, ReplicateExpandsDeterministically)
{
    const ScenarioSpec x = expandReplicas(fleetSpec(4));
    ASSERT_EQ(x.workloads.size(), 5u);
    EXPECT_EQ(x.workloads[0].name, "fe");
    for (unsigned i = 0; i < 4; ++i) {
        const WorkloadSpec &r = x.workloads[1 + i];
        EXPECT_EQ(r.name, "mc" + std::to_string(i));
        EXPECT_EQ(r.replicate, 1u);
        EXPECT_TRUE(r.steps.empty());
        // step.value_bytes = 16: base + i*delta.
        EXPECT_EQ(r.u64("value_bytes", 0), 1024 + 16 * i);
        // Replica 0 keeps the base seed; others decorrelate.
        EXPECT_EQ(r.u64("seed", 0), tenantSeed(9, i));
    }

    // The expansion is pure: same input, bit-identical output.
    EXPECT_EQ(serializeSpec(expandReplicas(fleetSpec(4))),
              serializeSpec(x));
    // replicate=1 passes through untouched.
    const ScenarioSpec one = fleetSpec(1);
    EXPECT_EQ(serializeSpec(expandReplicas(one)), serializeSpec(one));
}

TEST(FleetExpand, ReplicatedSpecTextRoundTripsBitExactly)
{
    // The a4sim --print contract: parse -> serialize -> parse is a
    // fixed point, with replicate= and step. lines preserved.
    const std::string text = serializeSpec(fleetSpec(4));
    EXPECT_NE(text.find("mc.replicate = 4"), std::string::npos);
    EXPECT_NE(text.find("mc.step.value_bytes = 16"), std::string::npos);
    const ScenarioSpec back = parseSpec(text, "fleet.spec");
    EXPECT_EQ(serializeSpec(back), text);
}

TEST(FleetExpand, RejectionsNameTheOffence)
{
    auto expectErr = [](const std::string &text,
                        const std::string &needle) {
        try {
            parseSpec(text, "spec.txt");
            FAIL() << "expected FatalError containing '" << needle
                   << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "actual message: " << e.what();
        }
    };

    const std::string base = "workload = mc\n"
                             "mc.kind = memcached-udp\n";
    expectErr(base + "mc.replicate = 0\n", "mc.replicate");
    expectErr(base + "mc.replicate = 2\nmc.pin = 0:1\n",
              "pin and replicate");
    expectErr(base + "mc.replicate = 2\nmc.step.value_bytes = 16\n",
              "needs an explicit base");
    expectErr(base + "mc.step.nosuch = 1\n", "unknown knob");

    // A step that drives an unsigned knob negative is caught at
    // expansion time (the earliest point the product i*delta exists).
    const ScenarioSpec neg =
        parseSpec(base + "mc.replicate = 3\nmc.num_queues = 4\n"
                         "mc.step.num_queues = -3\n",
                  "spec.txt");
    try {
        expandReplicas(neg);
        FAIL() << "expected FatalError about a negative knob";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("negative"),
                  std::string::npos)
            << "actual message: " << e.what();
    }
}

// --------------------------------------------------------------------
// groupTenants: IOCA-style clustering under CLOS exhaustion

TEST(FleetGrouping, BudgetCoversTenantsOneEach)
{
    const std::vector<ClosTenant> t = {
        {1, 0.9, 0.8}, {2, 0.1, 0.1}, {3, 0.5, 0.4}};
    const std::vector<unsigned> g = groupTenants(t, 8);
    // Distinct groups, rank order of (miss_rate, mpa, id).
    EXPECT_EQ(g, (std::vector<unsigned>{2, 0, 1}));
}

TEST(FleetGrouping, ExhaustionClustersBySimilarity)
{
    // Two tight clusters and one outlier; budget 2 must split at the
    // widest gap, keeping each cluster together.
    const std::vector<ClosTenant> t = {
        {1, 0.10, 0.1}, {2, 0.11, 0.1}, {3, 0.92, 0.9},
        {4, 0.90, 0.9}, {5, 0.12, 0.1}};
    const std::vector<unsigned> g = groupTenants(t, 2);
    EXPECT_EQ(g[0], g[1]);
    EXPECT_EQ(g[0], g[4]);
    EXPECT_EQ(g[2], g[3]);
    EXPECT_NE(g[0], g[2]);
}

TEST(FleetGrouping, AllEqualSignalsStayDeterministic)
{
    // Before the first monitor interval every sample is zero: the
    // id tie-break still yields a stable assignment.
    std::vector<ClosTenant> t;
    for (unsigned i = 0; i < 13; ++i)
        t.push_back({i, 0.0, 0.0});
    const std::vector<unsigned> a = groupTenants(t, 11);
    const std::vector<unsigned> b = groupTenants(t, 11);
    EXPECT_EQ(a, b);
    for (unsigned g : a)
        EXPECT_LT(g, 11u);
}

// --------------------------------------------------------------------
// A4Manager under CLOS exhaustion

namespace
{

struct Rig
{
    explicit Rig(const A4Params &prm)
        : cat(11, 18), ddio(4),
          cache(geom(), CacheLatencies{}, dram, cat)
    {
        pcie.addPort("nic", DeviceClass::Network);
        mgr = std::make_unique<A4Manager>(eng, cache, cat, ddio, dram,
                                          pcie, prm);
    }

    static CacheGeometry
    geom()
    {
        CacheGeometry g;
        g.num_cores = 18;
        g.llc_sets = 64;
        g.mlc_ways = 4;
        g.mlc_sets = 16;
        return g;
    }

    /** Register a non-I/O workload on one core. */
    void
    addCpu(WorkloadId id, QosPriority prio)
    {
        WorkloadDesc d;
        d.id = id;
        d.name = "cpu" + std::to_string(id);
        d.cores = {static_cast<CoreId>(id)};
        d.priority = prio;
        mgr->addWorkload(d);
    }

    Engine eng;
    Dram dram;
    CatController cat;
    DdioController ddio;
    PcieTopology pcie;
    CacheSystem cache;
    std::unique_ptr<A4Manager> mgr;
};

A4Params
fleetParams()
{
    A4Params p = a4Variant('d');
    p.per_tenant_clos = true;
    p.min_accesses = 100;
    p.monitor_interval = kMsec;
    return p;
}

} // namespace

TEST(FleetClos, DemandWithinBudgetGetsPerTenantClos)
{
    Rig r(fleetParams());
    r.addCpu(1, QosPriority::High);
    for (WorkloadId id = 2; id <= 6; ++id)
        r.addCpu(id, QosPriority::Low);
    r.mgr->tick(); // allocation is applied on the first tick

    EXPECT_EQ(r.mgr->closDemand(), 5u + 5u);
    EXPECT_EQ(r.mgr->lpGroupCount(), 5u);
    std::vector<unsigned> clos;
    for (WorkloadId id = 2; id <= 6; ++id) {
        const unsigned c = r.mgr->lpClosOf(id);
        EXPECT_GT(c, A4Manager::kClosTrash) << "id " << id;
        EXPECT_LT(c, r.cat.numClos()) << "id " << id;
        // Every LP CLOS carries the LP-Zone mask.
        EXPECT_EQ(r.cat.closMask(c),
                  r.cat.closMask(A4Manager::kClosLpw));
        for (unsigned o : clos)
            EXPECT_NE(c, o);
        clos.push_back(c);
    }
}

TEST(FleetClos, ExhaustionGroupsInsteadOfAborting)
{
    // 13 LP tenants + 2 HPWs on 16-CLOS hardware: demand 18 > 16.
    // The grouping pass must fold the LPWs into the 11 CLOS past the
    // fixed classes instead of running out of ids.
    Rig r(fleetParams());
    r.addCpu(1, QosPriority::High);
    r.addCpu(2, QosPriority::High);
    for (WorkloadId id = 3; id <= 15; ++id)
        r.addCpu(id, QosPriority::Low);
    r.mgr->tick();

    EXPECT_EQ(r.mgr->closDemand(), 5u + 13u);
    EXPECT_GT(r.mgr->closDemand(), r.cat.numClos());
    const unsigned groups = r.mgr->lpGroupCount();
    EXPECT_GE(groups, 1u);
    EXPECT_LE(groups, 11u);
    for (WorkloadId id = 3; id <= 15; ++id) {
        const unsigned c = r.mgr->lpClosOf(id);
        EXPECT_GT(c, A4Manager::kClosTrash);
        EXPECT_LT(c, r.cat.numClos());
        EXPECT_EQ(r.cat.closMask(c),
                  r.cat.closMask(A4Manager::kClosLpw));
        EXPECT_EQ(r.cat.closOfCore(static_cast<CoreId>(id)), c);
    }
}

TEST(FleetClos, SharedClosWithoutTheGate)
{
    // Gate off: the paper's single shared LPW CLOS, regardless of
    // tenant count.
    A4Params p = fleetParams();
    p.per_tenant_clos = false;
    Rig r(p);
    for (WorkloadId id = 1; id <= 8; ++id)
        r.addCpu(id, QosPriority::Low);
    r.mgr->tick();
    EXPECT_EQ(r.mgr->lpGroupCount(), 1u);
    for (WorkloadId id = 1; id <= 8; ++id)
        EXPECT_EQ(r.mgr->lpClosOf(id), A4Manager::kClosLpw);
}

TEST(FleetMetrics_, AggregatesRideTheRecordCodec)
{
    const SpecResult r = runSpecWithWindows(fleetSpec(4), tinyWindows());
    const FleetMetrics m = fleetMetrics(r);
    EXPECT_EQ(m.tenants, 5u);
    EXPECT_GT(m.jain_fairness, 0.0);
    EXPECT_LE(m.jain_fairness, 1.0);
    EXPECT_GT(m.fleet_p99_us, 0.0);
    EXPECT_GT(m.worst_slowdown, 0.0);
    EXPECT_LE(m.worst_slowdown, 1.0);
    EXPECT_EQ(m.kindP99("memcached-udp"), m.fleet_p99_us);

    // The sweep metric expressions see the same values.
    EXPECT_EQ(evalSweepMetric(r, "sys.jain_fairness"), m.jain_fairness);
    EXPECT_EQ(evalSweepMetric(r, "sys.fleet_p99_us"), m.fleet_p99_us);
    EXPECT_EQ(evalSweepMetric(r, "sys.worst_slowdown"),
              m.worst_slowdown);
    EXPECT_EQ(evalSweepMetric(r, "sys.kind_p99_us.memcached-udp"),
              m.kindP99("memcached-udp"));
    EXPECT_TRUE(validSweepMetricExpr("sys.jain_fairness"));
    EXPECT_TRUE(validSweepMetricExpr("sys.kind_p99_us.fio"));
    EXPECT_FALSE(validSweepMetricExpr("sys.kind_p99_us."));

    // The fleet aggregates survive the sweep-pipe Record codec: a
    // worker-serialized result reproduces them bit-exactly.
    const SpecResult back =
        specResultFrom(Record::deserialize(toRecord(r).serialize()));
    const FleetMetrics m2 = fleetMetrics(back);
    EXPECT_EQ(m2.jain_fairness, m.jain_fairness);
    EXPECT_EQ(m2.fleet_p99_us, m.fleet_p99_us);
    EXPECT_EQ(m2.worst_slowdown, m.worst_slowdown);
}
