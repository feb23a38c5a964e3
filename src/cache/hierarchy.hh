/**
 * @file
 * The modeled cache hierarchy: private MLCs + sliced non-inclusive LLC
 * with an inclusive directory, DCA ways, and CAT-mask-aware placement.
 *
 * This is the substrate on which every contention in the paper
 * emerges. The load-bearing placement rules (numbered as in DESIGN.md
 * §3) are:
 *
 *  1. Non-inclusive fill: core misses fill the MLC only.
 *  2. Victim cache: MLC evictions allocate into the LLC inside the
 *     evicting core's CLOS mask.
 *  3. LLC-inclusive lines (present in LLC *and* an MLC) may live only
 *     in the inclusive ways, which are coupled one-to-one with the two
 *     directory ways shared between the traditional and extended
 *     directory groups (Yan et al. [65]).
 *  4. Directory migration (C1): a core read of a DMA-written
 *     LLC-exclusive line transitions it to shared LLC-inclusive
 *     (Wang et al. [60]) and therefore *migrates* it into an inclusive
 *     way, evicting the resident line — regardless of any CLOS mask.
 *     Non-I/O LLC hits instead move the line to the MLC and drop the
 *     LLC copy (plain victim-cache behaviour).
 *  5. DCA write-allocate/write-update: allocating DMA writes update a
 *     cached line in place wherever it is, else allocate into the DCA
 *     ways only.
 *  6. DMA leak: an I/O line evicted from the LLC before any core
 *     consumed it is counted against the owning workload.
 *  7. DMA bloat: consumed I/O lines evicted from an MLC re-enter the
 *     LLC through rule 2.
 *  8. Non-allocating DMA writes (DDIO disabled for the port) go to
 *     memory and invalidate stale cached copies.
 *  9. Egress DMA reads are served from the LLC when present; a copy of
 *     MLC-only data is read-allocated into the inclusive ways; misses
 *     read memory without allocating.
 * 10. CAT masks constrain only new allocations.
 *
 * Implementation note: each set is one 64 B-aligned host block, split
 * so that a tag probe reads one host line: line 0 holds the `ways`
 * u32 tags (the line number; 0 marks an invalid way, so line 0 of the
 * address space is reserved -- AddressMap starts at 256 MiB) and, as
 * far as they fit, the `ways` u8 replacement bytes (LRU ranks; SRRIP
 * RRPVs in the LLC under SRRIP); the next line holds the u8 flags,
 * the u16 owners and, in the LLC only, the u16 MLC cores. An 11-way
 * LLC block and a 16-way MLC block are 128 B each. Each level's blocks
 * are one zero-filled anonymous mapping, so every set starts with all
 * ways invalid and all ranks 0, and a set's host pages are faulted in
 * only when the simulation first touches it. The way kernels
 * (cache/scan.hh) are SSE2: the tag match compares four tags a step
 * into a bitmask; an LRU touch lowers every rank above the touched
 * way's in one pcmpgtb/paddb pass and gives the way the top rank, so
 * the k ways touched so far hold ranks ways-k..ways-1 in touch order
 * and the others hold 0; the LRU victim is the lowest invalid way in
 * the mask, else the rank-0 way (full mask) or a pminub argmin of the
 * in-mask ranks. The zero start picks the victims a permutation start
 * would: every fill touches its way, so a valid way has been touched,
 * and the victim reads ranks only when every in-mask way is valid.
 * Invalidation clears only the tag; the metadata of an invalid way is
 * stale and never read. The run entry points (coreRun,
 * dmaWriteRun, dmaReadRun) walk consecutive lines and prefetch the
 * blocks upcoming lines will touch; a prefetch hint only hashes a
 * line into block addresses and reads no state. The hint's hashes are
 * kept and handed down to the line's access, so a run hashes each line
 * once. The prefetch is a volatile asm because GCC finds a helper
 * whose only effect is __builtin_prefetch pure and deletes every call
 * to it (scripts/check_prefetch.sh checks the machine code).
 */

#ifndef A4_CACHE_HIERARCHY_HH
#define A4_CACHE_HIERARCHY_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/counters.hh"
#include "cache/geometry.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"
#include "sim/types.hh"

namespace a4
{

/** deferredTick() value meaning "no deferred access pending". */
inline constexpr Tick kNoDeferredIo = ~Tick(0);

/**
 * A device model whose accesses into the hierarchy are generated
 * lazily instead of one engine event each (the NIC's burst arrival
 * path). The source exposes the timestamp of its earliest
 * not-yet-applied access; the cache drains every attached source up
 * to `now` — in global (timestamp, attach-order) order — before any
 * access or counter sample can observe shared state. This is the
 * observation barrier that makes batched arrival generation
 * tick-for-tick indistinguishable from per-event scheduling: state is
 * only ever *read* with all logically-earlier accesses applied.
 *
 * The cache keeps each source's tick in a tournament tree and only
 * re-reads it when the source is applied, when a stale tick wins the
 * merge, or when the source calls CacheSystem::noteDeferredTick().
 * A tick that rises unannounced (a stop) is caught when it wins; a
 * tick that falls unannounced would be missed, so a source must call
 * noteDeferredTick(*this) whenever its tick may decrease ((re)start
 * or a new pending access).
 */
class DeferredIoSource
{
  public:
    virtual ~DeferredIoSource() = default;

    /** Timestamp of the earliest pending deferred access, or
     *  kNoDeferredIo when idle. Must be non-decreasing except across
     *  a restart of the source, which the source announces through
     *  CacheSystem::noteDeferredTick(). */
    virtual Tick deferredTick() const = 0;

    /** Apply exactly the earliest pending deferred access.
     *  @pre deferredTick() != kNoDeferredIo. */
    virtual void applyDeferredAccess() = 0;

  private:
    friend class CacheSystem;
    std::uint32_t deferred_index_ = 0; ///< attach index in the cache
};

/** Result level of a core access (for tests and latency breakdowns). */
enum class HitLevel { MlcHit, LlcHit, Memory };

/** Outcome of a core access: where it hit and what it cost. */
struct AccessResult
{
    HitLevel level;
    double latency_ns;
};

/** Cache hierarchy model (all cores' MLCs + the shared LLC). */
class CacheSystem
{
  public:
    /** Upper bound on num_cores (an LLC way keeps the core of its
     *  registered MLC copy in a u16). */
    static constexpr unsigned kMaxCores = 1024;

    CacheSystem(const CacheGeometry &geom, const CacheLatencies &lat,
                Dram &dram, CatController &cat);

    /** @name Core-side accesses (attributed to @p wl). @{ */
    AccessResult
    coreRead(Tick now, CoreId core, Addr addr, WorkloadId wl)
    {
        const Addr line = lineOf(addr);
        return coreAccess(now, core, line, mlcBlockOf(core, line),
                          kSetUnhashed, wl, false);
    }

    AccessResult
    coreWrite(Tick now, CoreId core, Addr addr, WorkloadId wl)
    {
        const Addr line = lineOf(addr);
        return coreAccess(now, core, line, mlcBlockOf(core, line),
                          kSetUnhashed, wl, true);
    }

    /**
     * Core reads (or writes) of @p lines consecutive lines from
     * @p addr, all at @p now: the same accesses, in the same order, as
     * that many coreRead/coreWrite calls. @p on_line(const
     * AccessResult &) runs after each line, so callers keep their own
     * accumulation order.
     */
    template <typename OnLine>
    void
    coreRun(Tick now, CoreId core, Addr addr, std::uint64_t lines,
            WorkloadId wl, bool is_write, OnLine &&on_line)
    {
        walkRun(
            lineOf(addr), lines,
            [&](Addr line) { return prefetchCoreSets(core, line); },
            [&](Addr line, const CoreSets &s) {
                on_line(coreAccess(now, core, line, s.mb, s.set, wl,
                                   is_write));
            });
    }
    /** @} */

    /**
     * Device-to-host DMA write of one line.
     *
     * @param owner workload owning the target buffer (attribution).
     * @param consumers cores whose MLCs may hold stale copies (the
     *        buffer's consumer threads); stands in for the extended
     *        directory's snoop filtering.
     * @param allocating DDIO allocating flow (true) vs non-allocating.
     */
    void
    dmaWriteLine(Tick now, Addr addr, WorkloadId owner,
                 std::span<const CoreId> consumers, bool allocating)
    {
        const Addr line = lineOf(addr);
        dmaWrite(now, line, llcSetOf(line), owner, consumers, allocating);
    }

    /**
     * Host-to-device DMA read of one line (egress).
     * @return true if served from the cache hierarchy.
     */
    bool
    dmaReadLine(Tick now, Addr addr, WorkloadId owner,
                std::span<const CoreId> cores)
    {
        const Addr line = lineOf(addr);
        return dmaRead(now, line, llcSetOf(line), owner, cores);
    }

    /** dmaWriteLine over @p lines consecutive lines from @p addr. */
    void dmaWriteRun(Tick now, Addr addr, std::uint64_t lines,
                     WorkloadId owner, std::span<const CoreId> consumers,
                     bool allocating);

    /** dmaReadLine over @p lines consecutive lines from @p addr.
     *  @return the number of lines served from the hierarchy. */
    std::uint64_t dmaReadRun(Tick now, Addr addr, std::uint64_t lines,
                             WorkloadId owner,
                             std::span<const CoreId> cores);

    /**
     * @name Introspection (tests, analysis, occupancy census).
     *
     * These readers (and the counter banks below) are const and
     * therefore bypass the deferred-access barrier: with a batched
     * NIC attached, call drainDeferred(now) first or the state read
     * can be up to one burst interval stale. The access paths and
     * PCM samples drain automatically; raw censuses cannot.
     * @{
     */
    struct Probe
    {
        bool in_llc = false;
        unsigned way = 0;
        bool dirty = false;
        bool io = false;
        bool consumed = false;
        bool in_mlc_flag = false;
        WorkloadId owner = kNoWorkload;
    };

    Probe probeLlc(Addr addr) const;
    bool inMlc(CoreId core, Addr addr) const;

    /**
     * Audit structural invariants; returns the number of violations
     * (0 when healthy). Checked: (a) no duplicate tags within a set,
     * (b) LLC-inclusive lines reside only in inclusive ways, (c) every
     * kInMlc line's registered MLC copy actually exists.
     */
    std::size_t auditInvariants() const;

    /** Valid-line count per LLC way (whole cache). */
    std::vector<std::uint64_t> llcWayOccupancy() const;
    /** Valid-line count per LLC way owned by @p wl. */
    std::vector<std::uint64_t> llcWayOccupancyOf(WorkloadId wl) const;
    /** @} */

    /** @name Deferred device-access sources (burst batching). @{ */
    /** Register @p src; its pending accesses gate every observation. */
    void attachDeferredSource(DeferredIoSource &src);
    /** Unregister @p src (sources detach on destruction). Neither
     *  call may come from inside applyDeferredAccess(). */
    void detachDeferredSource(DeferredIoSource &src);
    /** Re-read @p src's deferredTick() into the merge (O(log N));
     *  sources call this whenever their tick may have decreased. A
     *  stale merge re-reads every tick at its rebuild anyway. */
    void
    noteDeferredTick(DeferredIoSource &src)
    {
        if (deferred_stale_)
            return;
        assert(src.deferred_index_ < deferred_.size() &&
               deferred_[src.deferred_index_] == &src);
        refreshDeferred(src.deferred_index_, src.deferredTick());
    }
    /**
     * Apply all deferred accesses with timestamp <= @p now, merged
     * across sources in (timestamp, attach-order) order. Called
     * internally before every access; public for samplers that read
     * counters without touching lines (PCM, occupancy censuses).
     * One compare when nothing is pending.
     */
    void
    drainDeferred(Tick now)
    {
        if (now >= next_deferred_) [[unlikely]]
            drainDeferredSlow(now);
    }
    /** @} */

    /** Per-workload counter bank (auto-grows). */
    WorkloadCounters &
    wl(WorkloadId id)
    {
        if (id >= wl_stats.size()) [[unlikely]]
            wl_stats.resize(std::size_t(id) + 1);
        return wl_stats[id];
    }
    const WorkloadCounters &wlConst(WorkloadId id) const;

    GlobalCacheCounters &global() { return gstats; }
    const GlobalCacheCounters &global() const { return gstats; }

    const CacheGeometry &geometry() const { return geom; }
    const CacheLatencies &latencies() const { return lat; }

  private:
    /** Per-way flags; a way is valid iff its tag is non-zero. */
    enum Flags : std::uint8_t
    {
        kDirty = 1,
        kIo = 2,       ///< holds DMA-written I/O data
        kConsumed = 4, ///< a core has read it since the last DMA write
        kInMlc = 8,    ///< LLC-inclusive: also present in an MLC
    };

    /** Why a line is being evicted from the LLC (stats attribution). */
    enum class EvictCause { Capacity, Migration, DmaAlloc };

    /**
     * Every set of one cache level, each a 64 B-aligned block:
     * [tags: ways x u32, scan::tagBytes][ranks: ways x u8,
     * scan::rankBytes][flags: ways x u8, padded to even][owners: ways
     * x u16][cores: ways x u16, LLC only][pad to 64 B].
     */
    class SetBlocks
    {
      public:
        /** Map @p sets zero-filled blocks: every way invalid, every
         *  rank 0. @p with_cores adds the MLC-core region. */
        void init(std::size_t sets, unsigned ways, bool with_cores);

        std::uint32_t *
        tags(std::size_t set)
        {
            return reinterpret_cast<std::uint32_t *>(at(set));
        }
        const std::uint32_t *
        tags(std::size_t set) const
        {
            return reinterpret_cast<const std::uint32_t *>(at(set));
        }
        /** LRU ranks (SRRIP RRPVs in an SRRIP LLC). */
        std::uint8_t *
        ranks(std::size_t set)
        {
            return reinterpret_cast<std::uint8_t *>(at(set) + rank_off_);
        }
        std::uint8_t *
        flags(std::size_t set)
        {
            return reinterpret_cast<std::uint8_t *>(at(set) + flag_off_);
        }
        const std::uint8_t *
        flags(std::size_t set) const
        {
            return reinterpret_cast<const std::uint8_t *>(at(set) +
                                                          flag_off_);
        }
        std::uint16_t *
        owners(std::size_t set)
        {
            return reinterpret_cast<std::uint16_t *>(at(set) + owner_off_);
        }
        const std::uint16_t *
        owners(std::size_t set) const
        {
            return reinterpret_cast<const std::uint16_t *>(at(set) +
                                                           owner_off_);
        }
        /** MLC cores (with_cores blocks only). */
        std::uint16_t *
        cores(std::size_t set)
        {
            assert(with_cores_);
            return reinterpret_cast<std::uint16_t *>(at(set) + core_off_);
        }
        const std::uint16_t *
        cores(std::size_t set) const
        {
            assert(with_cores_);
            return reinterpret_cast<const std::uint16_t *>(at(set) +
                                                           core_off_);
        }

        /** Prefetch every host line of block @p set. A volatile asm:
         *  GCC marks a helper whose only effect is __builtin_prefetch
         *  pure and deletes the calls, while an asm with a side effect
         *  stays. x86 only, like the way scans (cache/scan.hh). */
        void
        prefetch(std::size_t set) const
        {
            for (std::size_t off = 0; off < block_; off += 64)
                asm volatile("prefetcht0 %0" : : "m"(*(at(set) + off)));
        }

      private:
        /** munmap()s the @p bytes mapped by init(). */
        struct Unmap
        {
            std::size_t bytes;
            void operator()(std::byte *p) const;
        };

        std::byte *at(std::size_t set) const
        {
            return mem_.get() + set * block_;
        }

        std::unique_ptr<std::byte, Unmap> mem_;
        std::size_t block_ = 0;
        std::size_t rank_off_ = 0;
        std::size_t flag_off_ = 0;
        std::size_t owner_off_ = 0;
        std::size_t core_off_ = 0;
        bool with_cores_ = false;
    };

    // --- tags: a line's tag is its number, 0 marks an invalid way ------
    static constexpr Addr kLineMask = (Addr(1) << kLineFieldBits) - 1;

    /** Tag of @p line on an access path. */
    static std::uint32_t
    tagOf(Addr line)
    {
        assert(line <= kLineMask && "address beyond the 32-bit line field");
        assert(line != 0 && "line 0 is reserved (tag 0 = invalid way)");
        return static_cast<std::uint32_t>(line);
    }

    // --- indexing ---------------------------------------------------------
    // Inlined: set hashing + tag scan are the fast path of every
    // simulated access (MLC hits resolve to one hash + one scan).

    static std::uint64_t
    mix(std::uint64_t x)
    {
        // splitmix64 finalizer; stands in for the slice/index hash.
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        x ^= x >> 31;
        return x;
    }

    unsigned
    llcSetOf(Addr line) const
    {
        return static_cast<unsigned>(
            (static_cast<unsigned __int128>(mix(line)) * geom.llc_sets)
            >> 64);
    }

    /** Block index of @p line's set in @p core's MLC. */
    std::size_t
    mlcBlockOf(CoreId core, Addr line) const
    {
        const auto set = static_cast<unsigned>(
            (static_cast<unsigned __int128>(
                 mix(line ^ 0xA4A4'5EED'0000'0001ull)) *
             geom.mlc_sets) >> 64);
        return std::size_t(core) * geom.mlc_sets + set;
    }

    /** coreAccess()'s @p set when the caller has not hashed the line:
     *  it is then hashed on an MLC miss only, so a single-line MLC hit
     *  costs the one MLC hash. */
    static constexpr unsigned kSetUnhashed = ~0u;

    // --- run prefetch hints (hash lines into addresses, read no state) ----
    // A run prefetches the set blocks of the line kRunAhead places
    // ahead, and keeps the hint's indices for that line's access.
    static constexpr std::uint64_t kRunAhead = 4;

    /** A core run line's MLC block and LLC set. */
    struct CoreSets
    {
        std::size_t mb;
        unsigned set;
    };

    CoreSets
    prefetchCoreSets(CoreId core, Addr line) const
    {
        const CoreSets s{mlcBlockOf(core, line), llcSetOf(line)};
        llc_.prefetch(s.set);
        mlc_.prefetch(s.mb);
        return s;
    }

    /** A DMA run's hint: @p line's LLC set (returned) and its blocks
     *  in the MLCs of @p cores. */
    unsigned
    prefetchDmaSets(Addr line, std::span<const CoreId> cores) const
    {
        const unsigned set = llcSetOf(line);
        llc_.prefetch(set);
        for (CoreId c : cores)
            mlc_.prefetch(mlcBlockOf(c, line));
        return set;
    }

    /**
     * Walk lines [first, first + lines): @p hint(line) prefetches a
     * line's blocks kRunAhead lines before its turn and returns its
     * indices, which @p access(line, indices) then receives. Slot
     * i % kRunAhead of the ring holds line i's indices from its hint
     * to its access.
     */
    template <typename Hint, typename Access>
    static void
    walkRun(Addr first, std::uint64_t lines, Hint &&hint, Access &&access)
    {
        using Indices = decltype(hint(first));
        Indices ahead[kRunAhead] = {};
        for (std::uint64_t i = 0; i < std::min(lines, kRunAhead); ++i)
            ahead[i] = hint(first + i);
        for (std::uint64_t i = 0; i < lines; ++i) {
            Indices &slot = ahead[i % kRunAhead];
            const Indices mine = slot;
            if (i + kRunAhead < lines)
                slot = hint(first + i + kRunAhead);
            access(first + i, mine);
        }
    }

    // --- internal operations ----------------------------------------------
    void drainDeferredSlow(Tick now);
    /** Attach or detach happened: rebuild the merge at the next drain. */
    void markDeferredStale();
    /** Rebuild the merge tree from every source's deferredTick(). */
    void rebuildDeferred();
    /** Set source @p i's cached tick to @p tick and replay its path. */
    void refreshDeferred(std::uint32_t i, Tick tick);
    /** Access @p line, whose block in @p core's MLC is @p mb and whose
     *  LLC set is @p set (or kSetUnhashed). */
    AccessResult coreAccess(Tick now, CoreId core, Addr line,
                            std::size_t mb, unsigned set,
                            WorkloadId wl_id, bool is_write);
    /** DMA write of @p line, whose LLC set is @p set. */
    void dmaWrite(Tick now, Addr line, unsigned set, WorkloadId owner,
                  std::span<const CoreId> consumers, bool allocating);
    /** DMA read of @p line, whose LLC set is @p set. */
    bool dmaRead(Tick now, Addr line, unsigned set, WorkloadId owner,
                 std::span<const CoreId> cores);
    /** Fill @p line into MLC block @p mb (the caller has just seen it
     *  miss there), evicting the LRU way if the set is full. */
    void mlcInsert(Tick now, CoreId core, std::size_t mb, Addr line,
                   WorkloadId owner, bool dirty, bool io);
    /** Write back way @p v of MLC block @p mb (valid) of @p core. */
    void mlcEvictWay(Tick now, CoreId core, std::size_t mb, unsigned v);
    void invalidateMlc(CoreId core, Addr line);

    /**
     * Allocate @p line into the LLC choosing a victim inside @p mask.
     * @return way index used.
     */
    unsigned llcAlloc(Tick now, unsigned set, Addr line, WayMask mask,
                      WorkloadId owner, std::uint8_t flags,
                      EvictCause cause);
    void llcEvictSlot(Tick now, unsigned set, unsigned way,
                      EvictCause cause);
    void touchLlc(unsigned set, unsigned way);
    void rankInsertLlc(unsigned set, unsigned way);

    CacheGeometry geom;
    CacheLatencies lat;
    Dram &dram;
    CatController &cat;

    WayMask dca_mask;
    WayMask inclusive_mask;

    SetBlocks llc_; ///< llc_sets blocks
    SetBlocks mlc_; ///< num_cores x mlc_sets blocks, core-major

    mutable std::vector<WorkloadCounters> wl_stats;
    GlobalCacheCounters gstats;

    /** A merge-tree node: the earliest (tick, attach index) below. */
    struct DeferredNode
    {
        Tick tick;
        std::uint32_t src;
    };

    /** The merge order: earlier tick, then lower attach index. */
    static const DeferredNode &
    earlier(const DeferredNode &a, const DeferredNode &b)
    {
        return b.tick < a.tick || (b.tick == a.tick && b.src < a.src) ? b
                                                                      : a;
    }

    // Deferred-access sources in attach order, their min-tournament
    // tree (leaf i at deferred_tree_[n + i], node k the winner of
    // 2k and 2k + 1, the root at 1; ties to the lower attach index)
    // and the root's tick as the one-compare fast-path hint. Attach
    // and detach only mark the tree stale (and the hint 0); the next
    // drain rebuilds it, so building or tearing down N sources reads
    // each tick once rather than N times.
    std::vector<DeferredIoSource *> deferred_;
    std::vector<DeferredNode> deferred_tree_;
    Tick next_deferred_ = kNoDeferredIo;
    bool deferred_stale_ = false;
    bool draining_ = false; ///< re-entrancy guard (drains access us)
};

} // namespace a4

#endif // A4_CACHE_HIERARCHY_HH
