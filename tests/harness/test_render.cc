/**
 * @file
 * Golden render tests for the scenario-view outputs of a declarative
 * sweep: the per-workload table (relative columns, antagonist star,
 * hit column, aggregate rows) and `agg hp|lp|all` table cells, fed
 * synthetic Records and compared as exact stdout text. The figure
 * JSON checks never see these bytes; this pins them.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness/spec.hh"
#include "harness/sweep.hh"

using namespace a4;

namespace
{

/** A tiny record = scenario sweep: a three-scheme grid rendered as a
 *  workload table, and a two-point sensitivity grid rendered as agg
 *  cells against the Default point. */
const char *const kRenderSweep =
    "sweep = render\n"
    "record = scenario\n"
    "base.workload = x\n"
    "base.x.kind = xmem\n"
    "axis = scheme\n"
    "scheme.key = scheme\n"
    "scheme.values = Default,Isolate,A4-d\n"
    "axis = t5\n"
    "t5.key = a4.t5\n"
    "t5.values = 0.90,0.80\n"
    "t5.labels = 90,80\n"
    "grid = main\n"
    "main.point = {scheme}\n"
    "main.axes = scheme\n"
    "grid = sens\n"
    "sens.point = A4-d/T5={t5}\n"
    "sens.axes = t5\n"
    "sens.set = scheme=A4-d\n"
    "out = text === render ===\\n\n"
    "out = workload_table\n"
    "wt_grid = main\n"
    "wt_axis = scheme\n"
    "wt_baseline = Default\n"
    "wt_columns = Isolate,A4-d\n"
    "wt_star = A4-d\n"
    "wt_hit = A4-d\n"
    "wt_title = \\n--- per workload ---\\n\n"
    "wt_skip = \\n--- skipped: no baseline ---\\n\n"
    "wt_headers = workload|QoS|Isolate|A4-d|A4-d hit\n"
    "wt_agg_headers = aggregate|Isolate|A4-d\n"
    "out = text \\n--- sensitivity ---\\n\n"
    "out = table\n"
    "headers = config|Avg (HP)|Avg (LP)|Avg (all)\n"
    "ref = main scheme=Default\n"
    "block = sens\n"
    "axes = t5\n"
    "cell = text T5={t5}%\n"
    "cell = agg hp\n"
    "cell = agg lp\n"
    "cell = agg all\n";

struct Wl
{
    const char *name;
    bool hpw;
    double perf;
    double hit;
    bool ant;
};

/** A scenario-view Record with the per-workload keys written
 *  directly, in the view's key order. */
Record
syntheticRecord(const std::vector<Wl> &wls)
{
    Record r;
    r.set("workloads", double(wls.size()));
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const std::string p = "w" + std::to_string(i) + ".";
        r.set(p + "name", std::string(wls[i].name));
        r.set(p + "hpw", wls[i].hpw ? 1.0 : 0.0);
        r.set(p + "mtio", 0.0);
        r.set(p + "perf", wls[i].perf);
        r.set(p + "hit", wls[i].hit);
        r.set(p + "ant", wls[i].ant ? 1.0 : 0.0);
        r.set(p + "tail_us", 0.0);
    }
    for (const char *key :
         {"fc_nic_to_host_us", "fc_pointer_us", "fc_process_us",
          "ffsbh_read_ms", "ffsbh_regex_ms", "ffsbh_write_ms",
          "fc_rd_gbps", "fc_wr_gbps", "ffsbh_rd_gbps", "ffsbh_wr_gbps",
          "mem_rd_gbps", "mem_wr_gbps", "past_events"})
        r.set(key, 0.0);
    return r;
}

/** Synthetic results per point: the Isolate column lists the
 *  workloads in another order, lacks one and adds an unknown one; the
 *  A4-d column flags an antagonist; one baseline perf is zero, so the
 *  aggregates must skip it. */
std::vector<std::pair<std::string, Record>>
renderRecords()
{
    return {
        {"Default",
         syntheticRecord({{"kv", true, 2.0, 0.5, false},
                         {"spec1", false, 1.5, 0.25, false},
                         {"fio", false, 1000.0, 0.125, false},
                         {"idle", true, 0.0, 0.0, false}})},
        {"Isolate",
         syntheticRecord({{"fio", false, 800.0, 0.2, false},
                         {"kv", true, 3.0, 0.6, false},
                         {"extra", true, 9.0, 0.9, false},
                         {"idle", true, 1.0, 0.0, false}})},
        {"A4-d",
         syntheticRecord({{"kv", true, 2.5, 0.75, false},
                         {"spec1", false, 1.2, 0.5, false},
                         {"fio", false, 1100.0, 0.0625, true},
                         {"idle", true, 0.0, 0.0, false}})},
        {"A4-d/T5=90",
         syntheticRecord({{"kv", true, 4.0, 0.5, false},
                         {"spec1", false, 3.0, 0.5, false},
                         {"fio", false, 500.0, 0.5, false},
                         {"idle", true, 2.0, 0.0, false}})},
        {"A4-d/T5=80",
         syntheticRecord({{"kv", true, 1.0, 0.5, false},
                         {"spec1", false, 0.0, 0.5, false},
                         {"fio", false, 4000.0, 0.5, true},
                         {"idle", true, 1.0, 0.0, false}})},
    };
}

/** renderSweep()'s stdout for the synthetic records under @p filter. */
std::string
renderWith(const std::string &filter)
{
    const SweepSpec spec = parseSweepSpec(kRenderSweep, "render.sweep");
    SweepOptions opt;
    opt.jobs = 1;
    opt.filter = filter;
    Sweep sw("render", opt);
    std::vector<std::string> names;
    for (const SweepPoint &p : expandSweepSpec(spec, "render.sweep"))
        names.push_back(p.name);
    const auto records = renderRecords();
    // The synthetic records stand in for the expanded points, under
    // the same names and in the same order.
    EXPECT_EQ(names.size(), records.size());
    for (std::size_t i = 0; i < records.size() && i < names.size(); ++i)
        EXPECT_EQ(names[i], records[i].first);
    for (const auto &[name, rec] : records) {
        const Record copy = rec;
        sw.add(name, [copy] { return copy; });
    }
    sw.run();
    testing::internal::CaptureStdout();
    try {
        renderSweep(spec, sw);
    } catch (...) {
        testing::internal::GetCapturedStdout();
        throw;
    }
    return testing::internal::GetCapturedStdout();
}

} // namespace

TEST(SweepRender, WorkloadTableAndAggCellsMatchGolden)
{
    const std::string want =
        "=== render ===\n"
        "\n"
        "--- per workload ---\n"
        "workload  QoS  Isolate  A4-d  A4-d hit\n"
        "--------------------------------------\n"
        "kv        HP   1.50     1.25  75.0%   \n"
        "spec1     LP   0.00     0.80  50.0%   \n"
        "fio*      LP   0.80     1.10  6.2%    \n"
        "idle      HP   0.00     0.00  0.0%    \n"
        "aggregate  Isolate  A4-d\n"
        "------------------------\n"
        "Avg (HP)   1.50     1.25\n"
        "Avg (LP)   0.80     0.94\n"
        "Avg (all)  1.10     1.03\n"
        "\n"
        "--- sensitivity ---\n"
        "config  Avg (HP)  Avg (LP)  Avg (all)\n"
        "-------------------------------------\n"
        "T5=90%  2.00      1.00      1.26     \n"
        "T5=80%  0.50      4.00      1.41     \n";
    EXPECT_EQ(renderWith(""), want);
}

TEST(SweepRender, SkipTextWhenBaselineFiltered)
{
    // --filter keeps A4-d and the sensitivity points but drops the
    // Default baseline: the workload table prints its skip text and
    // the agg cells print '-'.
    const std::string want =
        "=== render ===\n"
        "\n"
        "--- skipped: no baseline ---\n"
        "\n"
        "--- sensitivity ---\n"
        "config  Avg (HP)  Avg (LP)  Avg (all)\n"
        "-------------------------------------\n"
        "T5=90%  -         -         -        \n"
        "T5=80%  -         -         -        \n";
    EXPECT_EQ(renderWith("A4-d"), want);
}
