/**
 * @file
 * The per-set way scans of the cache model, private to src/cache (and
 * its tests): tag match and replacement victim over one set block.
 *
 * A set block (see CacheSystem::SetBlocks) holds `ways` packed u64
 * entries -- the line number in the low 32 bits, the valid flag at
 * bit kValidBit -- then `ways` u16 stamps. The scans use SSE2, the
 * x86-64 baseline: the tag match takes four entries per step and the
 * LRU victim eight stamps per step, so both read whole groups past
 * the last way. scanBytes() is how far they read; set blocks are
 * sized to cover it, and lanes past the last way are masked off.
 * Every scan takes 1 to 32 ways (CacheSystem fatals outside that).
 */

#ifndef A4_CACHE_SCAN_HH
#define A4_CACHE_SCAN_HH

#ifndef __SSE2__
#error "the cache way scans need SSE2 (x86-64)"
#endif

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "rdt/cat.hh"

namespace a4::scan
{

/** Bit of a packed entry that marks it valid. */
inline constexpr unsigned kValidBit = 58;

/** Bytes a scan reads from the start of a block of @p ways ways:
 *  whole groups of four entries, and whole groups of eight stamps
 *  from the end of the entries. */
constexpr std::size_t
scanBytes(unsigned ways)
{
    return std::max(std::size_t(32) * ((ways + 3) / 4),
                    std::size_t(8) * ways + 16 * ((ways + 7) / 8));
}

/** Bits 0..ways-1. */
inline std::uint32_t
lanesOf(unsigned ways)
{
    return static_cast<std::uint32_t>((std::uint64_t(1) << ways) - 1);
}

/** Per-way bitmasks of one tag scan. */
struct WayBits
{
    std::uint32_t match; ///< valid ways holding the line
    std::uint32_t valid; ///< valid ways
};

/**
 * Tag scan of @p ways entries, four per step: two 16 B loads, split
 * into the line dwords and the flag dwords (shufps 0x88 / 0xDD), each
 * compared four at a time and reduced to four mask bits (movmskps).
 */
inline WayBits
matchBits(const std::uint64_t *e, unsigned ways, std::uint32_t line)
{
    const __m128i want = _mm_set1_epi32(static_cast<int>(line));
    const __m128i vbit = _mm_set1_epi32(1 << (kValidBit - 32));
    std::uint32_t match = 0;
    std::uint32_t valid = 0;
    for (unsigned g = 0; 4 * g < ways; ++g) {
        const auto *p = reinterpret_cast<const __m128i *>(e + 4 * g);
        const __m128 lo = _mm_castsi128_ps(_mm_loadu_si128(p));
        const __m128 hi = _mm_castsi128_ps(_mm_loadu_si128(p + 1));
        const __m128i lines = _mm_castps_si128(_mm_shuffle_ps(lo, hi, 0x88));
        const __m128i flags = _mm_castps_si128(_mm_shuffle_ps(lo, hi, 0xDD));
        const __m128i v = _mm_cmpeq_epi32(_mm_and_si128(flags, vbit), vbit);
        const __m128i m = _mm_and_si128(_mm_cmpeq_epi32(lines, want), v);
        match |= unsigned(_mm_movemask_ps(_mm_castsi128_ps(m))) << 4 * g;
        valid |= unsigned(_mm_movemask_ps(_mm_castsi128_ps(v))) << 4 * g;
    }
    const std::uint32_t lanes = lanesOf(ways);
    return {match & lanes, valid & lanes};
}

/** Way holding @p line among @p ways entries, or -1. Tags are unique
 *  within a set, so at most one way matches. */
inline int
findWay(const std::uint64_t *e, unsigned ways, std::uint32_t line)
{
    const std::uint32_t m = matchBits(e, ways, line).match;
    return m != 0 ? std::countr_zero(m) : -1;
}

/**
 * LRU victim among the ways in @p mask, or -1 if the mask selects
 * none: the lowest-indexed invalid way, else the way with the least
 * stamp, ties to the lowest index.
 *
 * The argmin runs eight u16 stamps per step. SSE2 has only a signed
 * u16 min (pminsw), so stamps are biased by XOR 0x8000 and lanes
 * outside the mask set to the largest key, 0x7FFF; a pminsw tree
 * gives the least key in every lane. A valid stamp of 0xFFFF biases
 * to that same 0x7FFF, so the lanes equal to the minimum are ANDed
 * with the in-mask lanes before pmovmskb (two bits a lane).
 */
inline int
lruVictim(const std::uint64_t *e, const std::uint16_t *st, unsigned ways,
          WayMask mask)
{
    const std::uint32_t cand = mask & lanesOf(ways);
    if (cand == 0)
        return -1;
    // Only the valid mask is used; the line compared against is moot.
    if (const std::uint32_t free = cand & ~matchBits(e, ways, 0).valid)
        return std::countr_zero(free);

    const __m128i bias = _mm_set1_epi16(static_cast<short>(0x8000));
    const __m128i top = _mm_set1_epi16(0x7FFF);
    const __m128i sel = _mm_setr_epi16(1, 2, 4, 8, 16, 32, 64, 128);
    const unsigned groups = (ways + 7) / 8;
    __m128i key[4];
    __m128i in[4];
    __m128i least = top;
    for (unsigned g = 0; g < groups; ++g) {
        const __m128i s = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(st + 8 * g)),
            bias);
        const __m128i bits =
            _mm_set1_epi16(static_cast<short>(cand >> 8 * g));
        in[g] = _mm_cmpeq_epi16(_mm_and_si128(bits, sel), sel);
        key[g] = _mm_or_si128(_mm_and_si128(in[g], s),
                              _mm_andnot_si128(in[g], top));
        least = _mm_min_epi16(least, key[g]);
    }
    least = _mm_min_epi16(least, _mm_shuffle_epi32(least, 0x4E));
    least = _mm_min_epi16(least, _mm_shuffle_epi32(least, 0xB1));
    least = _mm_min_epi16(
        least, _mm_shufflehi_epi16(_mm_shufflelo_epi16(least, 0xB1), 0xB1));

    std::uint64_t hits = 0;
    for (unsigned g = 0; g < groups; ++g) {
        const __m128i eq =
            _mm_and_si128(_mm_cmpeq_epi16(key[g], least), in[g]);
        hits |= std::uint64_t(unsigned(_mm_movemask_epi8(eq))) << 16 * g;
    }
    return std::countr_zero(hits) / 2;
}

/**
 * SRRIP victim among the ways in @p mask, or -1 if the mask selects
 * none: the lowest-indexed way that is invalid or at the distant RRPV
 * (3), else the way with the greatest RRPV, ties to the lowest index.
 * @p st holds the RRPVs.
 */
inline int
srripVictim(const std::uint64_t *e, const std::uint16_t *st,
            unsigned ways, WayMask mask)
{
    const std::uint32_t cand = mask & lanesOf(ways);
    const std::uint32_t valid = matchBits(e, ways, 0).valid;
    int best = -1;
    for (std::uint32_t c = cand; c != 0; c &= c - 1) {
        const int w = std::countr_zero(c);
        if (!(valid >> w & 1) || st[w] >= 3)
            return w;
        if (best < 0 || st[w] > st[best])
            best = w;
    }
    return best;
}

} // namespace a4::scan

#endif // A4_CACHE_SCAN_HH
