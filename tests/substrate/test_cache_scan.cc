/**
 * @file
 * The SSE2 way scans (cache/scan.hh) against plain scalar loops: the
 * tag match, and the LRU and SRRIP victims as the minimum of a per-way
 * key -- `w` for an invalid (or, under SRRIP, distant) way,
 * `1<<32 | rank<<8 | w` for a valid one, all-ones outside the mask.
 *
 * Blocks are seeded random for every associativity from 1 to 32 and
 * allocated at exactly scan::scanBytes, so a sanitizer build catches a
 * read past what the scans declare. The bytes past the last stamp are
 * random, as are the upper entry bits of every way; invalid ways keep
 * stale lines and stamps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "cache/scan.hh"
#include "rdt/cat.hh"
#include "sim/rng.hh"

using namespace a4;

namespace
{

constexpr std::uint64_t kValid = std::uint64_t(1) << scan::kValidBit;

/** One set block of @p ways ways, scanBytes long, random throughout. */
struct Block
{
    Block(unsigned ways_, Rng &rng)
        : ways(ways_), bytes(scan::scanBytes(ways_)),
          mem(new std::byte[bytes])
    {
        for (std::size_t i = 0; i < bytes; ++i)
            mem[i] = std::byte(rng.next());
    }

    std::uint64_t
    entry(unsigned w) const
    {
        std::uint64_t e;
        std::memcpy(&e, &mem[8 * w], 8);
        return e;
    }
    void setEntry(unsigned w, std::uint64_t e)
    {
        std::memcpy(&mem[8 * w], &e, 8);
    }
    std::uint16_t
    stamp(unsigned w) const
    {
        std::uint16_t s;
        std::memcpy(&s, &mem[8 * ways + 2 * w], 2);
        return s;
    }
    void setStamp(unsigned w, std::uint16_t s)
    {
        std::memcpy(&mem[8 * ways + 2 * w], &s, 2);
    }

    const std::uint64_t *
    entries() const
    {
        return reinterpret_cast<const std::uint64_t *>(mem.get());
    }
    const std::uint16_t *
    stamps() const
    {
        return reinterpret_cast<const std::uint16_t *>(mem.get() +
                                                       8 * ways);
    }

    unsigned ways;
    std::size_t bytes;
    std::unique_ptr<std::byte[]> mem;
};

bool isValid(std::uint64_t e) { return e & kValid; }
std::uint32_t lineField(std::uint64_t e) { return std::uint32_t(e); }

/** Fill @p b like a live set: unique lines on the valid ways, stale
 *  entries (sometimes all-zero, as invalidation leaves them) on the
 *  others, and stamps drawn per @p mode: full range, a narrow range
 *  full of ties, or mostly 0xFFFF. */
void
fillSet(Block &b, Rng &rng, unsigned mode)
{
    std::vector<std::uint32_t> lines;
    for (unsigned w = 0; w < b.ways; ++w) {
        std::uint32_t line = 0;
        do {
            line = std::uint32_t(rng.below(4 * b.ways + 1));
        } while (std::count(lines.begin(), lines.end(), line) != 0);
        lines.push_back(line);
        std::uint64_t e = (rng.next() & ~kValid & ~0xFFFFFFFFull) | line;
        if (rng.below(4) == 0)
            e = rng.chance(0.5) ? 0 : e; // invalid, stale or zeroed
        else
            e |= kValid;
        b.setEntry(w, e);

        std::uint16_t s = std::uint16_t(rng.next());
        if (mode == 1)
            s = std::uint16_t(rng.below(5));
        else if (mode == 2 && !rng.chance(0.2))
            s = 0xFFFF;
        b.setStamp(w, s);
    }
}

WayMask
randomMask(unsigned ways, Rng &rng)
{
    switch (rng.below(6)) {
    case 0:
        return 0;
    case 1:
        return WayMask(1) << rng.below(ways);
    case 2:
        return ~WayMask(0);
    case 3:
        return scan::lanesOf(ways);
    case 4: {
        const auto lo = unsigned(rng.below(ways));
        const auto hi = lo + unsigned(rng.below(ways - lo));
        return CatController::makeMask(lo, hi);
    }
    default:
        return WayMask(rng.next());
    }
}

int
scalarFind(const Block &b, std::uint32_t line)
{
    int found = -1;
    for (unsigned w = 0; w < b.ways; ++w) {
        if (isValid(b.entry(w)) && lineField(b.entry(w)) == line)
            found = int(w);
    }
    return found;
}

/** The key-min victim, one way at a time. */
int
scalarVictim(const Block &b, WayMask mask, bool srrip)
{
    std::uint64_t best = ~std::uint64_t(0);
    for (unsigned w = 0; w < b.ways; ++w) {
        if (!(mask >> w & 1))
            continue;
        std::uint64_t rank = b.stamp(w);
        bool ranked = isValid(b.entry(w));
        if (srrip) {
            rank = rank < 3 ? 3 - rank : 0;
            ranked = ranked && rank != 0;
        }
        const std::uint64_t key =
            ranked ? (std::uint64_t(1) << 32) | (rank << 8) | w : w;
        best = std::min(best, key);
    }
    return best == ~std::uint64_t(0) ? -1 : int(best & 0xFF);
}

constexpr int kTrialsPerWays = 600;

} // namespace

TEST(CacheScan, FindWayMatchesTheScalarLoop)
{
    Rng rng(181);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < kTrialsPerWays; ++t) {
            Block b(ways, rng);
            fillSet(b, rng, unsigned(rng.below(3)));
            std::vector<std::uint32_t> probes = {
                0, std::uint32_t(rng.next()),
                std::uint32_t(rng.below(4 * ways + 1))};
            for (unsigned w = 0; w < ways; ++w)
                probes.push_back(lineField(b.entry(w)));
            for (std::uint32_t line : probes) {
                ASSERT_EQ(scan::findWay(b.entries(), ways, line),
                          scalarFind(b, line))
                    << ways << " ways, trial " << t << ", line " << line;
            }
            std::uint32_t valid_bits = 0;
            for (unsigned w = 0; w < ways; ++w)
                valid_bits |= std::uint32_t(isValid(b.entry(w))) << w;
            ASSERT_EQ(scan::matchBits(b.entries(), ways, 0).valid,
                      valid_bits);
        }
    }
}

TEST(CacheScan, LruVictimIsTheKeyMinimum)
{
    Rng rng(182);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < kTrialsPerWays; ++t) {
            Block b(ways, rng);
            fillSet(b, rng, unsigned(rng.below(3)));
            for (int m = 0; m < 4; ++m) {
                const WayMask mask = randomMask(ways, rng);
                ASSERT_EQ(scan::lruVictim(b.entries(), b.stamps(), ways,
                                          mask),
                          scalarVictim(b, mask, false))
                    << ways << " ways, trial " << t << ", mask 0x"
                    << std::hex << mask;
            }
        }
    }
}

TEST(CacheScan, SrripVictimIsTheKeyMinimum)
{
    Rng rng(183);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < kTrialsPerWays; ++t) {
            Block b(ways, rng);
            fillSet(b, rng, 1 + unsigned(rng.below(2)));
            for (int m = 0; m < 4; ++m) {
                const WayMask mask = randomMask(ways, rng);
                ASSERT_EQ(scan::srripVictim(b.entries(), b.stamps(), ways,
                                            mask),
                          scalarVictim(b, mask, true))
                    << ways << " ways, trial " << t << ", mask 0x"
                    << std::hex << mask;
            }
        }
    }
}

TEST(CacheScan, AllMaxStampsPickTheLowestWayInTheMask)
{
    // A valid stamp of 0xFFFF biases to the out-of-mask sentinel, so
    // the argmin must not hand back an out-of-mask lane that ties it.
    Rng rng(184);
    for (unsigned ways : {3u, 8u, 11u, 16u, 19u, 25u, 32u}) {
        Block b(ways, rng);
        for (unsigned w = 0; w < ways; ++w) {
            b.setEntry(w, kValid | w);
            b.setStamp(w, 0xFFFF);
        }
        const WayMask upper = CatController::makeMask(ways / 2, ways - 1);
        EXPECT_EQ(scan::lruVictim(b.entries(), b.stamps(), ways, upper),
                  int(ways / 2))
            << ways << " ways";
        b.setStamp(ways - 1, 0xFFFE);
        EXPECT_EQ(scan::lruVictim(b.entries(), b.stamps(), ways, upper),
                  int(ways - 1))
            << ways << " ways";
    }
}
