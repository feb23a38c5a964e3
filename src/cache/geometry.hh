/**
 * @file
 * Cache-hierarchy geometry and latency parameters.
 */

#ifndef A4_CACHE_GEOMETRY_HH
#define A4_CACHE_GEOMETRY_HH

#include "sim/log.hh"
#include "sim/types.hh"

namespace a4
{

/**
 * LLC replacement policy.
 *
 * LRU matches the evaluated Skylake parts. SRRIP (2-bit re-reference
 * interval prediction, Jaleel et al. [29]) is provided for the
 * related-work ablation: the paper argues that replacement-policy
 * fixes can ease DMA bloat but cannot address the directory
 * contention, whose migrations are placement-forced regardless of
 * policy — `a4bench ablation_replacement` demonstrates exactly that.
 */
enum class LlcReplacement { Lru, Srrip };

/**
 * Geometry of the modeled hierarchy.
 *
 * Defaults reproduce the evaluation CPU (Intel Xeon Gold 6140,
 * Skylake-SP): 18 cores, 1 MiB 16-way private MLC each, 24.75 MiB
 * 11-way non-inclusive LLC (18 slices x 2048 sets folded into one
 * logical array), DCA ways {0,1}, inclusive ways {9,10}.
 *
 * `scale` divides capacities (set counts) to trade fidelity for
 * simulation speed; experiments that scale their working sets by the
 * same factor preserve every capacity ratio in the paper.
 */
struct CacheGeometry
{
    unsigned num_cores = 18;

    unsigned llc_ways = 11;
    unsigned llc_sets = 18 * 2048;
    unsigned mlc_ways = 16;
    unsigned mlc_sets = 1024;

    unsigned dca_ways = 2;       ///< ways [0, dca_ways)
    unsigned inclusive_ways = 2; ///< ways [llc_ways - inclusive_ways, ...)

    LlcReplacement replacement = LlcReplacement::Lru;

    /** Divide set counts by @p s (capacity scaling). */
    CacheGeometry
    scaled(unsigned s) const
    {
        if (s == 0)
            fatal("CacheGeometry: scale must be >= 1");
        CacheGeometry g = *this;
        g.llc_sets = llc_sets / s;
        g.mlc_sets = mlc_sets / s;
        if (g.llc_sets == 0 || g.mlc_sets == 0)
            fatal("CacheGeometry: scale too large");
        return g;
    }

    std::uint64_t
    llcBytes() const
    {
        return std::uint64_t(llc_ways) * llc_sets * kLineBytes;
    }

    std::uint64_t
    mlcBytes() const
    {
        return std::uint64_t(mlc_ways) * mlc_sets * kLineBytes;
    }

    unsigned firstInclusiveWay() const { return llc_ways - inclusive_ways; }
};

/** Core-visible access latencies (ns); memory latency comes from Dram. */
struct CacheLatencies
{
    double mlc_hit_ns = 5.0;
    double llc_hit_ns = 20.0;
};

} // namespace a4

#endif // A4_CACHE_GEOMETRY_HH
