#include "cache/hierarchy.hh"

#include <sys/mman.h>

#include <cassert>
#include <new>

#include "cache/scan.hh"
#include "sim/log.hh"

namespace a4
{

// --- set blocks -----------------------------------------------------------------

void
CacheSystem::SetBlocks::Unmap::operator()(std::byte *p) const
{
    ::munmap(p, bytes);
}

void
CacheSystem::SetBlocks::init(std::size_t sets, unsigned ways,
                             bool with_cores)
{
    with_cores_ = with_cores;
    rank_off_ = scan::tagBytes(ways);
    flag_off_ = rank_off_ + scan::rankBytes(ways);
    owner_off_ = flag_off_ + (ways + 1) / 2 * 2;
    core_off_ = owner_off_ + 2 * std::size_t(ways);
    block_ = (core_off_ + (with_cores ? 2 * std::size_t(ways) : 0) + 63) /
             64 * 64;
    const std::size_t bytes = sets * block_;
    if (bytes == 0)
        return;
    // A fresh anonymous mapping reads as zeros (every tag invalid,
    // every rank 0) and is page-aligned; its pages are faulted in when
    // the simulation first touches a set, not here.
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    mem_ = std::unique_ptr<std::byte, Unmap>(static_cast<std::byte *>(p),
                                             Unmap{bytes});
}

CacheSystem::CacheSystem(const CacheGeometry &g, const CacheLatencies &l,
                         Dram &dram_, CatController &cat_)
    : geom(g), lat(l), dram(dram_), cat(cat_)
{
    static_assert(kLineFieldBits == 32, "tags are u32 line numbers");
    if (geom.dca_ways + geom.inclusive_ways > geom.llc_ways)
        fatal("CacheSystem: DCA + inclusive ways exceed associativity");
    if (cat.numWays() != geom.llc_ways)
        fatal("CacheSystem: CAT way count disagrees with geometry");
    if (geom.llc_ways == 0 || geom.llc_ways > 32 || geom.mlc_ways == 0 ||
        geom.mlc_ways > 32)
        fatal("CacheSystem: LLC and MLC associativity must be 1-32");
    if (geom.num_cores > kMaxCores)
        fatal(sformat("CacheSystem: %u cores exceed the %u cores the "
                      "LLC's MLC-core field can hold",
                      geom.num_cores, kMaxCores));

    dca_mask = CatController::makeMask(0, geom.dca_ways - 1);
    inclusive_mask = CatController::makeMask(geom.firstInclusiveWay(),
                                             geom.llc_ways - 1);

    llc_.init(geom.llc_sets, geom.llc_ways, true);
    mlc_.init(std::size_t(geom.num_cores) * geom.mlc_sets, geom.mlc_ways,
              false);

    wl_stats.resize(16);
}

void
CacheSystem::touchLlc(unsigned set, unsigned way)
{
    // LRU: the way becomes the most recent. SRRIP: promote to
    // near-immediate re-reference (RRPV 0).
    if (geom.replacement == LlcReplacement::Lru)
        scan::rankTouch(llc_.ranks(set), geom.llc_ways, way);
    else
        llc_.ranks(set)[way] = 0;
}

void
CacheSystem::rankInsertLlc(unsigned set, unsigned way)
{
    // SRRIP inserts at a long re-reference interval (RRPV 2), which
    // is what lets one-shot (bloated) lines age out before reused
    // ones; LRU inserts at MRU.
    if (geom.replacement == LlcReplacement::Lru)
        scan::rankTouch(llc_.ranks(set), geom.llc_ways, way);
    else
        llc_.ranks(set)[way] = 2;
}

// --- deferred device accesses -----------------------------------------------

void
CacheSystem::attachDeferredSource(DeferredIoSource &src)
{
    deferred_.push_back(&src);
    markDeferredStale();
}

void
CacheSystem::detachDeferredSource(DeferredIoSource &src)
{
    std::erase(deferred_, &src);
    markDeferredStale();
}

void
CacheSystem::markDeferredStale()
{
    assert(!draining_ && "sources may not attach or detach in an apply");
    // A hint of 0 sends the next drain down the slow path to rebuild.
    deferred_stale_ = true;
    next_deferred_ = 0;
}

void
CacheSystem::rebuildDeferred()
{
    deferred_stale_ = false;
    const std::size_t n = deferred_.size();
    // At least the root, so an empty merge reads as idle.
    deferred_tree_.assign(std::max<std::size_t>(2 * n, 2),
                          DeferredNode{kNoDeferredIo, 0});
    for (std::size_t i = 0; i < n; ++i) {
        deferred_[i]->deferred_index_ = static_cast<std::uint32_t>(i);
        deferred_tree_[n + i] = DeferredNode{
            deferred_[i]->deferredTick(), static_cast<std::uint32_t>(i)};
    }
    for (std::size_t k = n; k-- > 1;) {
        deferred_tree_[k] =
            earlier(deferred_tree_[2 * k], deferred_tree_[2 * k + 1]);
    }
    next_deferred_ = deferred_tree_[1].tick;
}

void
CacheSystem::refreshDeferred(std::uint32_t i, Tick tick)
{
    const std::size_t n = deferred_.size();
    std::size_t k = n + i;
    if (deferred_tree_[k].tick == tick)
        return;
    deferred_tree_[k].tick = tick;
    for (k >>= 1; k >= 1; k >>= 1) {
        deferred_tree_[k] =
            earlier(deferred_tree_[2 * k], deferred_tree_[2 * k + 1]);
    }
    next_deferred_ = deferred_tree_[1].tick;
}

void
CacheSystem::drainDeferredSlow(Tick now)
{
    // Applying a deferred access re-enters through dmaWriteLine (and
    // may trigger DRAM/eviction traffic); the guard makes those inner
    // drainDeferred() calls no-ops so application order stays the
    // single merge below.
    if (draining_)
        return;
    draining_ = true;
    if (deferred_stale_)
        rebuildDeferred();
    for (;;) {
        // Merge across sources: earliest timestamp wins, attach order
        // breaks ties, so the applied stream is identical no matter
        // which observation (or which source's carrier event)
        // triggered the drain. A cached tick is never later than the
        // source's own, so a winner whose tick still matches is the
        // true minimum; one that moved (a stopped source) is
        // refreshed and the merge retried.
        const DeferredNode top = deferred_tree_[1];
        if (top.tick > now || top.tick == kNoDeferredIo)
            break;
        DeferredIoSource &src = *deferred_[top.src];
        const Tick t = src.deferredTick();
        if (t == top.tick) {
            src.applyDeferredAccess();
            refreshDeferred(top.src, src.deferredTick());
        } else {
            refreshDeferred(top.src, t);
        }
    }
    next_deferred_ = deferred_tree_[1].tick;
    draining_ = false;
}

// --- counters ----------------------------------------------------------------

const WorkloadCounters &
CacheSystem::wlConst(WorkloadId id) const
{
    if (id >= wl_stats.size())
        wl_stats.resize(std::size_t(id) + 1);
    return wl_stats[id];
}

// --- core-side path -----------------------------------------------------------

AccessResult
CacheSystem::coreAccess(Tick now, CoreId core, Addr line, std::size_t mb,
                        unsigned set, WorkloadId wl_id, bool is_write)
{
    drainDeferred(now);
    if (core >= geom.num_cores)
        panic(sformat("core %u out of range", core));
    const std::uint32_t tag = tagOf(line);

    WorkloadCounters &w = wl(wl_id);

    // MLC lookup.
    if (int mw = scan::findWay(mlc_.tags(mb), geom.mlc_ways, tag);
        mw >= 0) {
        scan::rankTouch(mlc_.ranks(mb), geom.mlc_ways, unsigned(mw));
        if (is_write)
            mlc_.flags(mb)[mw] |= kDirty;
        w.mlc_hit.inc();
        return {HitLevel::MlcHit, lat.mlc_hit_ns};
    }
    w.mlc_miss.inc();

    // LLC lookup.
    if (set == kSetUnhashed)
        set = llcSetOf(line);
    std::uint32_t *lt = llc_.tags(set);
    gstats.llc_lookups.inc();
    if (int lw = scan::findWay(lt, geom.llc_ways, tag); lw >= 0) {
        auto way = unsigned(lw);
        w.llc_hit.inc();
        touchLlc(set, way);

        std::uint8_t fl = llc_.flags(set)[way];
        const WorkloadId owner = llc_.owners(set)[way];

        if (fl & kIo) {
            // Rule 4: consumption of a DMA-written line transitions it
            // to shared LLC-inclusive, restricted to inclusive ways.
            fl |= kConsumed;
            if (way < geom.firstInclusiveWay()) {
                // Migrate: vacate this slot, re-allocate inside the
                // inclusive ways (CLOS-independent).
                lt[way] = 0;
                way = llcAlloc(now, set, line, inclusive_mask, owner,
                               fl, EvictCause::Migration);
                wl(owner).migrated_inclusive.inc();
            }
            llc_.flags(set)[way] = fl | kInMlc;
            llc_.cores(set)[way] = core;
            mlcInsert(now, core, mb, line, owner, is_write, true);
        } else {
            // Plain victim-cache hit: move to the MLC, drop the LLC
            // copy (non-inclusive exclusivity for non-I/O data).
            const bool dirty = fl & kDirty;
            lt[way] = 0;
            mlcInsert(now, core, mb, line, owner, dirty || is_write,
                      false);
        }
        return {HitLevel::LlcHit, lat.llc_hit_ns};
    }

    // Rule 1: miss fills the MLC only.
    w.llc_miss.inc();
    w.mem_read_lines.inc();
    double mem_ns = dram.readLine(now);
    mlcInsert(now, core, mb, line, wl_id, is_write, false);
    return {HitLevel::Memory, mem_ns};
}

void
CacheSystem::mlcInsert(Tick now, CoreId core, std::size_t mb, Addr line,
                       WorkloadId owner, bool dirty, bool io)
{
    // An invalid way, else the LRU victim.
    std::uint32_t *mt = mlc_.tags(mb);
    std::uint8_t *rank = mlc_.ranks(mb);
    const auto v =
        unsigned(scan::lruVictim(mt, rank, geom.mlc_ways, ~WayMask(0)));
    if (mt[v] != 0)
        mlcEvictWay(now, core, mb, v);

    mt[v] = tagOf(line);
    mlc_.flags(mb)[v] =
        std::uint8_t((dirty ? kDirty : 0) | (io ? kIo : 0));
    mlc_.owners(mb)[v] = owner;
    scan::rankTouch(rank, geom.mlc_ways, v);
}

void
CacheSystem::mlcEvictWay(Tick now, CoreId core, std::size_t mb, unsigned v)
{
    const Addr line = mlc_.tags(mb)[v];
    const std::uint8_t fl = mlc_.flags(mb)[v];
    const bool dirty = fl & kDirty;
    const bool io = fl & kIo;
    const WorkloadId owner = mlc_.owners(mb)[v];

    // If the LLC still holds the line (LLC-inclusive), the eviction
    // just downgrades it to LLC-exclusive — no new allocation.
    const unsigned set = llcSetOf(line);
    if (int lw = scan::findWay(llc_.tags(set), geom.llc_ways, tagOf(line));
        lw >= 0) {
        std::uint8_t &lf = llc_.flags(set)[lw];
        lf &= static_cast<std::uint8_t>(~kInMlc);
        if (dirty)
            lf |= kDirty;
        return;
    }

    // Rule 2 (+7): allocate into the LLC inside the core's CLOS mask.
    std::uint8_t nf =
        std::uint8_t((dirty ? kDirty : 0) | (io ? (kIo | kConsumed) : 0));
    llcAlloc(now, set, line, cat.maskForCore(core), owner, nf,
             EvictCause::Capacity);
    if (io)
        wl(owner).bloat_inserts.inc();
}

void
CacheSystem::invalidateMlc(CoreId core, Addr line)
{
    const std::size_t mb = mlcBlockOf(core, line);
    std::uint32_t *mt = mlc_.tags(mb);
    if (int mw = scan::findWay(mt, geom.mlc_ways, tagOf(line)); mw >= 0)
        mt[mw] = 0;
}

// --- LLC allocation / eviction --------------------------------------------------

unsigned
CacheSystem::llcAlloc(Tick now, unsigned set, Addr line, WayMask mask,
                      WorkloadId owner, std::uint8_t flags,
                      EvictCause cause)
{
    if (mask == 0)
        panic("llcAlloc: empty way mask");

    std::uint32_t *lt = llc_.tags(set);
    std::uint8_t *rank = llc_.ranks(set);
    const bool srrip = geom.replacement == LlcReplacement::Srrip;
    const int victim =
        srrip ? scan::srripVictim(lt, rank, geom.llc_ways, mask)
              : scan::lruVictim(lt, rank, geom.llc_ways, mask);
    if (victim < 0)
        panic("llcAlloc: mask selected no ways");
    const auto w2 = static_cast<unsigned>(victim);

    if (lt[w2] != 0) {
        if (srrip && rank[w2] < 3) {
            // SRRIP found no way at the distant RRPV (3): age every
            // candidate until the victim's RRPV reaches 3, which is
            // the net effect of re-scanning after each aging round.
            const unsigned age = 3u - rank[w2];
            for (unsigned w = 0; w < geom.llc_ways; ++w) {
                if (mask & (1u << w))
                    rank[w] = static_cast<std::uint8_t>(
                        std::min(3u, rank[w] + age));
            }
        }
        llcEvictSlot(now, set, w2, cause);
    }

    lt[w2] = tagOf(line);
    llc_.flags(set)[w2] = flags;
    llc_.owners(set)[w2] = owner;
    llc_.cores(set)[w2] = 0;
    rankInsertLlc(set, w2);
    return w2;
}

void
CacheSystem::llcEvictSlot(Tick now, unsigned set, unsigned way,
                          EvictCause cause)
{
    const std::uint8_t fl = llc_.flags(set)[way];
    WorkloadCounters &ow = wl(llc_.owners(set)[way]);

    gstats.llc_evictions.inc();
    if (way < geom.dca_ways)
        gstats.dca_evictions.inc();
    if (way >= geom.firstInclusiveWay())
        gstats.inclusive_evictions.inc();

    if (fl & kDirty) {
        gstats.llc_writebacks.inc();
        ow.mem_write_lines.inc();
        dram.writeLine(now);
    }
    // Rule 6: unconsumed I/O line pushed out = DMA leak.
    if ((fl & kIo) && !(fl & kConsumed))
        ow.dma_leaked.inc();
    if (cause == EvictCause::Migration)
        ow.evicted_by_migration.inc();

    // If an MLC still holds the line it silently becomes MLC-only;
    // the extended directory keeps tracking it (nothing to do here).
    llc_.tags(set)[way] = 0;
}

// --- device-side paths -------------------------------------------------------------

void
CacheSystem::dmaWrite(Tick now, Addr line, unsigned set, WorkloadId owner,
                      std::span<const CoreId> consumers, bool allocating)
{
    drainDeferred(now);
    const std::uint32_t tag = tagOf(line);
    WorkloadCounters &w = wl(owner);
    std::uint32_t *lt = llc_.tags(set);

    if (allocating) {
        w.dma_lines_written.inc();
        if (int lw = scan::findWay(lt, geom.llc_ways, tag); lw >= 0) {
            // Rule 5: write-update in place, wherever the line lives.
            std::uint8_t fl = llc_.flags(set)[lw];
            if (fl & kInMlc) {
                invalidateMlc(llc_.cores(set)[lw], line);
                fl &= static_cast<std::uint8_t>(~kInMlc);
            }
            fl |= kDirty | kIo;
            fl &= static_cast<std::uint8_t>(~kConsumed);
            llc_.flags(set)[lw] = fl;
            llc_.owners(set)[lw] = owner;
            touchLlc(set, unsigned(lw));
            w.dma_write_update.inc();
        } else {
            // Stale copies may linger in consumer MLCs (the line was
            // consumed through the memory path after a leak).
            for (CoreId c : consumers)
                invalidateMlc(c, line);
            llcAlloc(now, set, line, dca_mask, owner, kDirty | kIo,
                     EvictCause::DmaAlloc);
            w.dma_write_alloc.inc();
        }
    } else {
        // Rule 8: non-allocating write — memory traffic + invalidation.
        w.dma_nonalloc.inc();
        w.mem_write_lines.inc();
        dram.writeLine(now);
        if (int lw = scan::findWay(lt, geom.llc_ways, tag); lw >= 0) {
            if (llc_.flags(set)[lw] & kInMlc)
                invalidateMlc(llc_.cores(set)[lw], line);
            lt[lw] = 0;
        } else {
            for (CoreId c : consumers)
                invalidateMlc(c, line);
        }
    }
}

bool
CacheSystem::dmaRead(Tick now, Addr line, unsigned set, WorkloadId owner,
                     std::span<const CoreId> cores)
{
    drainDeferred(now);
    const std::uint32_t tag = tagOf(line);

    if (int lw = scan::findWay(llc_.tags(set), geom.llc_ways, tag);
        lw >= 0) {
        touchLlc(set, unsigned(lw));
        return true;
    }

    // MLC-only data: egress read-allocates a copy in the inclusive
    // ways (rule 9), making the line LLC-inclusive.
    for (CoreId c : cores) {
        const std::size_t mb = mlcBlockOf(c, line);
        if (int mw = scan::findWay(mlc_.tags(mb), geom.mlc_ways, tag);
            mw >= 0) {
            const unsigned nw =
                llcAlloc(now, set, line, inclusive_mask,
                         mlc_.owners(mb)[mw], kInMlc, EvictCause::Capacity);
            llc_.cores(set)[nw] = c;
            gstats.egress_inclusive_alloc.inc();
            return true;
        }
    }

    wl(owner).mem_read_lines.inc();
    dram.readBulk(now, kLineBytes); // a device read: no core waits on it
    return false;
}

// --- line runs ----------------------------------------------------------------------

void
CacheSystem::dmaWriteRun(Tick now, Addr addr, std::uint64_t lines,
                         WorkloadId owner,
                         std::span<const CoreId> consumers, bool allocating)
{
    walkRun(
        lineOf(addr), lines,
        [&](Addr line) { return prefetchDmaSets(line, consumers); },
        [&](Addr line, unsigned set) {
            dmaWrite(now, line, set, owner, consumers, allocating);
        });
}

std::uint64_t
CacheSystem::dmaReadRun(Tick now, Addr addr, std::uint64_t lines,
                        WorkloadId owner, std::span<const CoreId> cores)
{
    std::uint64_t served = 0;
    walkRun(
        lineOf(addr), lines,
        [&](Addr line) { return prefetchDmaSets(line, cores); },
        [&](Addr line, unsigned set) {
            served += dmaRead(now, line, set, owner, cores);
        });
    return served;
}

// --- introspection ----------------------------------------------------------------

CacheSystem::Probe
CacheSystem::probeLlc(Addr addr) const
{
    const Addr line = lineOf(addr);
    const unsigned set = llcSetOf(line);
    const int lw =
        line == 0 ? -1
                  : scan::findWay(llc_.tags(set), geom.llc_ways,
                                  static_cast<std::uint32_t>(line));
    Probe p;
    if (lw >= 0) {
        const std::uint8_t fl = llc_.flags(set)[lw];
        p.in_llc = true;
        p.way = unsigned(lw);
        p.dirty = fl & kDirty;
        p.io = fl & kIo;
        p.consumed = fl & kConsumed;
        p.in_mlc_flag = fl & kInMlc;
        p.owner = llc_.owners(set)[lw];
    }
    return p;
}

bool
CacheSystem::inMlc(CoreId core, Addr addr) const
{
    const Addr line = lineOf(addr);
    return line != 0 &&
           scan::findWay(mlc_.tags(mlcBlockOf(core, line)), geom.mlc_ways,
                         static_cast<std::uint32_t>(line)) >= 0;
}

std::size_t
CacheSystem::auditInvariants() const
{
    std::size_t violations = 0;
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        const std::uint32_t *lt = llc_.tags(s);
        for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2) {
            if (lt[w2] == 0)
                continue;
            // (a) tag unique within the set.
            for (unsigned v = w2 + 1; v < geom.llc_ways; ++v)
                violations += lt[v] == lt[w2];
            if (llc_.flags(s)[w2] & kInMlc) {
                // (b) inclusive lines only in inclusive ways.
                if (w2 < geom.firstInclusiveWay())
                    ++violations;
                // (c) the registered MLC copy exists.
                const CoreId c = llc_.cores(s)[w2];
                if (c >= geom.num_cores ||
                    scan::findWay(mlc_.tags(mlcBlockOf(c, lt[w2])),
                                  geom.mlc_ways, lt[w2]) < 0)
                    ++violations;
            }
        }
    }
    return violations;
}

std::vector<std::uint64_t>
CacheSystem::llcWayOccupancy() const
{
    std::vector<std::uint64_t> occ(geom.llc_ways, 0);
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        const std::uint32_t *lt = llc_.tags(s);
        for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2)
            occ[w2] += lt[w2] != 0;
    }
    return occ;
}

std::vector<std::uint64_t>
CacheSystem::llcWayOccupancyOf(WorkloadId id) const
{
    std::vector<std::uint64_t> occ(geom.llc_ways, 0);
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        const std::uint32_t *lt = llc_.tags(s);
        const std::uint16_t *own = llc_.owners(s);
        for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2)
            occ[w2] += lt[w2] != 0 && own[w2] == id;
    }
    return occ;
}

} // namespace a4
