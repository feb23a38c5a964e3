/**
 * @file
 * Differential test: CacheSystem against the naive reference model
 * (oracle/ref_cache.hh) on the seeded op stream of the cache property
 * tests, widened with CAT reprogramming and per-port DDIO toggles.
 *
 * After every op the two models must agree on the core access's hit
 * level and latency (or the DMA read's served flag), on every
 * per-workload and global counter, and on each workload's LLC way
 * occupancy. The occupancy census walks the whole LLC, so the
 * scale-4 cases take it every `census_every` ops and at the end; a
 * mismatch there is replayed op by op to find its first op. A failure
 * prints the shortest failing prefix of the stream. The AnyConsumer
 * cases run the stream's any-consumer variant: DMA ops over every
 * region with random consumer sets and egress cores. The Runs cases
 * add its line runs, which the reference model replays line by line,
 * and compare every line's outcome.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "cache/hierarchy.hh"
#include "oracle/op_stream.hh"
#include "oracle/ref_cache.hh"

using namespace a4;
using namespace a4::test;

namespace
{

struct DiffCase
{
    const char *name;
    CacheGeometry geom;
    unsigned lines;        ///< distinct lines per traffic region
    std::size_t ops;
    std::size_t census_every;
    std::uint64_t seed;
    bool any_consumer = false; ///< the op stream's widened DMA ops
    bool runs = false;         ///< the op stream's line runs
};

/** gtest's default print of a case is its raw bytes, which start with
 *  the address of @c name and so differ from build to build (and run
 *  to run under ASLR); the test list and ctest carry that print in the
 *  test name. Print the case's values instead. */
void
PrintTo(const DiffCase &dc, std::ostream *os)
{
    const CacheGeometry &g = dc.geom;
    *os << "llc " << g.llc_sets << "x" << g.llc_ways << " mlc "
        << g.mlc_sets << "x" << g.mlc_ways << " "
        << (g.replacement == LlcReplacement::Lru ? "lru" : "srrip")
        << " seed " << dc.seed;
    if (dc.any_consumer)
        *os << " any-consumer";
    if (dc.runs)
        *os << " runs";
}

CacheGeometry
tiny(unsigned llc_sets, unsigned mlc_sets, unsigned mlc_ways,
     LlcReplacement policy)
{
    CacheGeometry g;
    g.num_cores = 4;
    g.llc_sets = llc_sets;
    g.mlc_sets = mlc_sets;
    g.mlc_ways = mlc_ways;
    g.replacement = policy;
    return g;
}

/** Both levels at @p ways ways: the three- and four-step scans and the
 *  set-block bound past 16 ways. */
CacheGeometry
wide(unsigned ways, LlcReplacement policy)
{
    CacheGeometry g = tiny(8, 4, ways, policy);
    g.llc_ways = ways;
    return g;
}

CacheGeometry
scale4(LlcReplacement policy)
{
    CacheGeometry g = CacheGeometry{}.scaled(4);
    g.replacement = policy;
    return g;
}

/** Both models, each with its own DRAM and CAT, fed the same ops. */
struct Pair
{
    explicit Pair(const CacheGeometry &g)
        : cat(g.llc_ways, g.num_cores), ref_cat(g.llc_ways, g.num_cores),
          real(g, CacheLatencies{}, dram, cat),
          ref(g, CacheLatencies{}, ref_dram, ref_cat)
    {
        for (CatController *c : {&cat, &ref_cat}) {
            c->setClosMask(1, CatController::makeMask(2, 5));
            c->assignCore(0, 1);
        }
    }

    Dram dram, ref_dram;
    CatController cat, ref_cat;
    CacheSystem real;
    RefCache ref;
};

#define A4_WL_COUNTERS(X)                                                  \
    X(mlc_hit) X(mlc_miss) X(llc_hit) X(llc_miss) X(dma_lines_written)    \
    X(dma_write_update) X(dma_write_alloc) X(dma_nonalloc) X(dma_leaked) \
    X(migrated_inclusive) X(bloat_inserts) X(evicted_by_migration)       \
    X(mem_read_lines) X(mem_write_lines)

#define A4_GLOBAL_COUNTERS(X)                                              \
    X(llc_lookups) X(llc_evictions) X(llc_writebacks) X(dca_evictions)   \
    X(inclusive_evictions) X(egress_inclusive_alloc)

/** First counter on which the models differ, or "". */
std::string
counterDiff(Pair &p)
{
    std::ostringstream why;
    for (WorkloadId id = 0; id <= 3; ++id) {
        const WorkloadCounters &a = p.real.wl(id);
        const WorkloadCounters &b = p.ref.wl(id);
#define A4_CMP(f)                                                          \
        if (a.f.value() != b.f.value())                                    \
            why << "wl " << id << " " #f ": model " << a.f.value()         \
                << ", reference " << b.f.value() << "; ";
        A4_WL_COUNTERS(A4_CMP)
#undef A4_CMP
    }
#define A4_CMP(f)                                                          \
    if (p.real.global().f.value() != p.ref.global().f.value())             \
        why << #f ": model " << p.real.global().f.value()                  \
            << ", reference " << p.ref.global().f.value() << "; ";
    A4_GLOBAL_COUNTERS(A4_CMP)
#undef A4_CMP
    return why.str();
}

std::string
str(const OpOutcome &out)
{
    std::ostringstream s;
    for (const auto &[what, ns] : out)
        s << " (" << what << ", " << ns << ")";
    return s.str();
}

std::string
occupancyDiff(Pair &p)
{
    for (WorkloadId id = 1; id <= 3; ++id) {
        if (p.real.llcWayOccupancyOf(id) != p.ref.llcWayOccupancyOf(id))
            return "LLC way occupancy of wl " + std::to_string(id);
    }
    return "";
}

/**
 * Run the first @p ops ops, taking the census every @p census_every
 * ops and after every op from op @p dense_from on; returns the index
 * of the first op after which a check failed (@p why says which), or
 * @p ops if none did.
 */
std::size_t
firstMismatch(const DiffCase &dc, std::size_t ops,
              std::size_t census_every, std::size_t dense_from,
              std::string &why)
{
    Pair p(dc.geom);
    CacheOpStream stream(dc.seed, dc.geom.num_cores, dc.lines, true,
                         dc.geom.llc_ways, dc.any_consumer, dc.runs);
    for (std::size_t i = 0; i < ops; ++i) {
        const CacheOp op = stream.next();
        const OpOutcome got = applyOp(op, p.real, p.cat);
        const OpOutcome want = applyOp(op, p.ref, p.ref_cat);
        if (got != want) {
            why = "access outcome: model" + str(got) + ", reference" +
                  str(want);
            return i;
        }
        why = counterDiff(p);
        if (why.empty() && ((i + 1) % census_every == 0 ||
                            i >= dense_from || i + 1 == ops))
            why = occupancyDiff(p);
        if (!why.empty())
            return i;
    }
    return ops;
}

class Differential : public ::testing::TestWithParam<DiffCase>
{};

} // namespace

TEST_P(Differential, MatchesReferenceModel)
{
    const DiffCase &dc = GetParam();
    std::string why;
    std::size_t bad =
        firstMismatch(dc, dc.ops, dc.census_every, dc.ops, why);
    if (bad == dc.ops)
        return;
    if (dc.census_every > 1) { // narrow a census hit to its first op
        const std::size_t good = bad / dc.census_every * dc.census_every;
        bad = firstMismatch(dc, bad + 1, dc.census_every, good, why);
    }

    std::ostringstream prefix;
    CacheOpStream stream(dc.seed, dc.geom.num_cores, dc.lines, true,
                         dc.geom.llc_ways, dc.any_consumer, dc.runs);
    constexpr std::size_t kShown = 40;
    for (std::size_t i = 0; i <= bad; ++i) {
        const CacheOp op = stream.next();
        if (i + kShown > bad)
            prefix << "  #" << i << " " << op.str() << "\n";
    }
    ADD_FAILURE() << "shortest failing prefix: ops 0.." << bad << " (seed "
                  << dc.seed << ", " << dc.lines
                  << " lines per region; last " << std::min(bad + 1, kShown)
                  << " shown)\n"
                  << prefix.str() << "mismatch: " << why;
}

INSTANTIATE_TEST_SUITE_P(
    LruAndSrrip, Differential,
    ::testing::Values(
        DiffCase{"lru_tiny", tiny(8, 4, 4, LlcReplacement::Lru), 512,
                 40000, 1, 11},
        DiffCase{"srrip_tiny", tiny(8, 4, 4, LlcReplacement::Srrip), 512,
                 40000, 1, 12},
        DiffCase{"lru_conflict", tiny(2, 2, 2, LlcReplacement::Lru), 48,
                 40000, 1, 13},
        DiffCase{"srrip_conflict", tiny(2, 2, 2, LlcReplacement::Srrip),
                 48, 40000, 1, 14},
        // One LLC set and one MLC set per core: long LRU rank-touch
        // runs through the same sets.
        DiffCase{"lru_wrap", tiny(1, 1, 2, LlcReplacement::Lru), 48,
                 200000, 1, 17},
        DiffCase{"lru_19way", wide(19, LlcReplacement::Lru), 512, 40000,
                 1, 18},
        DiffCase{"srrip_19way", wide(19, LlcReplacement::Srrip), 512,
                 40000, 1, 19},
        DiffCase{"lru_25way", wide(25, LlcReplacement::Lru), 512, 40000,
                 1, 20},
        DiffCase{"srrip_25way", wide(25, LlcReplacement::Srrip), 512,
                 40000, 1, 21},
        DiffCase{"lru_scale4", scale4(LlcReplacement::Lru), 65536, 300000,
                 2048, 15},
        DiffCase{"srrip_scale4", scale4(LlcReplacement::Srrip), 65536,
                 300000, 2048, 16}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    AnyConsumer, Differential,
    ::testing::Values(
        DiffCase{"lru_tiny", tiny(8, 4, 4, LlcReplacement::Lru), 512,
                 40000, 1, 31, true},
        DiffCase{"srrip_conflict", tiny(2, 2, 2, LlcReplacement::Srrip),
                 48, 40000, 1, 32, true},
        DiffCase{"lru_25way", wide(25, LlcReplacement::Lru), 512, 40000,
                 1, 33, true},
        DiffCase{"srrip_19way", wide(19, LlcReplacement::Srrip), 512,
                 40000, 1, 34, true}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Runs, Differential,
    ::testing::Values(
        DiffCase{"lru_tiny", tiny(8, 4, 4, LlcReplacement::Lru), 512,
                 20000, 1, 41, true, true},
        DiffCase{"srrip_conflict", tiny(2, 2, 2, LlcReplacement::Srrip),
                 48, 20000, 1, 42, true, true},
        DiffCase{"lru_19way", wide(19, LlcReplacement::Lru), 512, 20000,
                 1, 43, false, true},
        DiffCase{"lru_scale4", scale4(LlcReplacement::Lru), 65536, 100000,
                 2048, 44, true, true}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return std::string(info.param.name);
    });
