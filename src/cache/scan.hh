/**
 * @file
 * The per-set way kernels of the cache model, private to src/cache
 * (and its tests): tag match, LRU rank update and replacement victim
 * over the two leading regions of one set block.
 *
 * A set block (see CacheSystem::SetBlocks) starts with `ways` u32
 * tags -- the line number, 0 for an invalid way -- in whole 16 B
 * groups (tagBytes), then `ways` u8 replacement bytes in whole 16 B
 * groups (rankBytes): LRU ranks, or SRRIP RRPVs in an SRRIP LLC. The
 * kernels use SSE2, the x86-64 baseline: the tag match compares four
 * tags per step and the rank kernels sixteen bytes per step, so both
 * read whole groups past the last way; lanes past the last way are
 * masked off and keep their values. Every kernel takes 1 to 32 ways
 * (CacheSystem fatals outside that).
 *
 * Under LRU a set's ranks start all 0 (CacheSystem maps its blocks
 * zero-filled). rankTouch() gives the touched way the top rank,
 * ways-1, and lowers only the ranks above its old one, so after k
 * distinct ways have been touched they hold ranks ways-k..ways-1 in
 * the order of their last touch or fill (the top the most recent),
 * and every never-touched way holds 0. Every fill touches its way, so
 * a valid way has always been touched: among valid ways the ranks are
 * distinct and ordered by last touch, and once every way has been
 * touched the ranks are a permutation of 0..ways-1.
 */

#ifndef A4_CACHE_SCAN_HH
#define A4_CACHE_SCAN_HH

#ifndef __SSE2__
#error "the cache way scans need SSE2 (x86-64)"
#endif

#include <emmintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "rdt/cat.hh"

namespace a4::scan
{

/** Bytes of the tag region of @p ways ways: whole groups of four. */
constexpr std::size_t
tagBytes(unsigned ways)
{
    return std::size_t(16) * ((ways + 3) / 4);
}

/** Bytes of the replacement-byte region: whole groups of sixteen. */
constexpr std::size_t
rankBytes(unsigned ways)
{
    return std::size_t(16) * ((ways + 15) / 16);
}

/** Bits 0..ways-1. */
inline std::uint32_t
lanesOf(unsigned ways)
{
    return static_cast<std::uint32_t>((std::uint64_t(1) << ways) - 1);
}

/**
 * Ways whose tag equals @p tag, four per step (pcmpeqd, movmskps).
 * A tag of 0 gives the invalid ways.
 */
inline std::uint32_t
matchBits(const std::uint32_t *tags, unsigned ways, std::uint32_t tag)
{
    const __m128i want = _mm_set1_epi32(static_cast<int>(tag));
    std::uint32_t match = 0;
    for (unsigned g = 0; 4 * g < ways; ++g) {
        const __m128i t = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + 4 * g));
        match |= unsigned(_mm_movemask_ps(
                     _mm_castsi128_ps(_mm_cmpeq_epi32(t, want))))
                 << 4 * g;
    }
    return match & lanesOf(ways);
}

/** Way holding line @p tag among @p ways tags, or -1. Tags are unique
 *  within a set, so at most one way matches.
 *  @pre tag != 0 (0 marks invalid ways). */
inline int
findWay(const std::uint32_t *tags, unsigned ways, std::uint32_t tag)
{
    const std::uint32_t m = matchBits(tags, ways, tag);
    return m != 0 ? std::countr_zero(m) : -1;
}

/** 0, 1, ..., 15: the lane index within a 16 B group. */
inline __m128i
byteIndex()
{
    return _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                         15);
}

/**
 * LRU touch or fill of @p way: every rank above the way's own drops
 * by one (pcmpgtb, then paddb of the all-ones compare), and the way
 * takes the top rank, ways - 1. Keeps a permutation a permutation,
 * and the zero-start invariant above.
 * Lanes past the last way are left as they are. The way's new rank is
 * blended into the same 16 B store, so a later vector load of the
 * ranks forwards from one store.
 */
inline void
rankTouch(std::uint8_t *rank, unsigned ways, unsigned way)
{
    const __m128i r = _mm_set1_epi8(static_cast<char>(rank[way]));
    const __m128i top = _mm_set1_epi8(static_cast<char>(ways - 1));
    const __m128i idx = byteIndex();
    for (unsigned g = 0; 16 * g < ways; ++g) {
        auto *p = reinterpret_cast<__m128i *>(rank + 16 * g);
        const __m128i x = _mm_loadu_si128(p);
        const __m128i in = _mm_cmpgt_epi8(
            _mm_set1_epi8(static_cast<char>(int(ways) - 16 * int(g))), idx);
        const __m128i self = _mm_cmpeq_epi8(
            _mm_set1_epi8(static_cast<char>(int(way) - 16 * int(g))), idx);
        const __m128i lowered =
            _mm_add_epi8(x, _mm_and_si128(_mm_cmpgt_epi8(x, r), in));
        _mm_storeu_si128(p, _mm_or_si128(_mm_andnot_si128(self, lowered),
                                         _mm_and_si128(self, top)));
    }
}

/**
 * Bits 16g..16g+15 of @p cand as bytes, 0xFF for a set bit: each mask
 * byte broadcast to eight lanes, then tested against a per-lane bit.
 */
inline __m128i
candLanes(std::uint32_t cand, unsigned g)
{
    const __m128i sel = _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1, 2,
                                      4, 8, 16, 32, 64, -128);
    __m128i v = _mm_cvtsi32_si128(static_cast<int>(cand >> 16 * g));
    v = _mm_unpacklo_epi8(v, v);  // b0 b0 b1 b1 ...
    v = _mm_unpacklo_epi16(v, v); // b0 x4, b1 x4, ...
    v = _mm_unpacklo_epi32(v, v); // b0 x8, b1 x8
    return _mm_cmpeq_epi8(_mm_and_si128(v, sel), sel);
}

/**
 * LRU victim among the ways in @p mask, or -1 if the mask selects
 * none: the lowest-indexed invalid way, else the way with the least
 * rank. @p rank holds the set's LRU ranks; they are read only when
 * every in-mask way is valid, so only ranks of touched ways matter.
 *
 * With every way a candidate that is the rank-0 way (pcmpeqb against
 * zero). Otherwise out-of-mask lanes become 0xFF, a pminub tree
 * leaves the least in-mask rank in every byte, and pcmpeqb against
 * it (ANDed with the mask, so ranks need not be distinct) picks the
 * way.
 */
inline int
lruVictim(const std::uint32_t *tags, const std::uint8_t *rank,
          unsigned ways, WayMask mask)
{
    const std::uint32_t lanes = lanesOf(ways);
    const std::uint32_t cand = mask & lanes;
    if (cand == 0)
        return -1;
    if (const std::uint32_t free = cand & matchBits(tags, ways, 0))
        return std::countr_zero(free);

    const unsigned groups = (ways + 15) / 16;
    __m128i key[2];
    std::uint32_t hits = 0;
    if (cand == lanes) {
        for (unsigned g = 0; g < groups; ++g) {
            key[g] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rank + 16 * g));
            hits |= unsigned(_mm_movemask_epi8(
                        _mm_cmpeq_epi8(key[g], _mm_setzero_si128())))
                    << 16 * g;
        }
    } else {
        const __m128i ones = _mm_set1_epi8(-1);
        __m128i least = ones;
        for (unsigned g = 0; g < groups; ++g) {
            const __m128i x = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rank + 16 * g));
            key[g] =
                _mm_or_si128(x, _mm_andnot_si128(candLanes(cand, g), ones));
            least = _mm_min_epu8(least, key[g]);
        }
        least = _mm_min_epu8(least, _mm_shuffle_epi32(least, 0x4E));
        least = _mm_min_epu8(least, _mm_shuffle_epi32(least, 0xB1));
        least = _mm_min_epu8(
            least,
            _mm_shufflehi_epi16(_mm_shufflelo_epi16(least, 0xB1), 0xB1));
        least = _mm_min_epu8(least, _mm_or_si128(_mm_srli_epi16(least, 8),
                                                 _mm_slli_epi16(least, 8)));
        for (unsigned g = 0; g < groups; ++g) {
            hits |= unsigned(_mm_movemask_epi8(_mm_cmpeq_epi8(key[g], least)))
                    << 16 * g;
        }
    }
    return std::countr_zero(hits & cand);
}

/**
 * SRRIP victim among the ways in @p mask, or -1 if the mask selects
 * none: the lowest-indexed way that is invalid or at the distant RRPV
 * (3), else the way with the greatest RRPV, ties to the lowest index.
 * @p rrpv holds the RRPVs.
 */
inline int
srripVictim(const std::uint32_t *tags, const std::uint8_t *rrpv,
            unsigned ways, WayMask mask)
{
    const std::uint32_t cand = mask & lanesOf(ways);
    const std::uint32_t invalid = matchBits(tags, ways, 0);
    int best = -1;
    for (std::uint32_t c = cand; c != 0; c &= c - 1) {
        const int w = std::countr_zero(c);
        if ((invalid >> w & 1) || rrpv[w] >= 3)
            return w;
        if (best < 0 || rrpv[w] > rrpv[best])
            best = w;
    }
    return best;
}

} // namespace a4::scan

#endif // A4_CACHE_SCAN_HH
