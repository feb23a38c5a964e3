#include "oracle/ref_cache.hh"

#include <algorithm>

namespace a4::test
{

namespace
{

/** The model's set-index hash: splitmix64's finalizer, then the top
 *  bits of a multiply by the set count. */
unsigned
setIndex(Addr key, unsigned sets)
{
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return unsigned((static_cast<unsigned __int128>(x) * sets) >> 64);
}

} // namespace

RefCache::RefCache(const CacheGeometry &g, const CacheLatencies &l,
                   Dram &d, const CatController &c)
    : geom(g), lat(l), dram(d), cat(c)
{
    auto fresh = [](unsigned ways) {
        Set s;
        s.ways.resize(ways);
        for (unsigned w = 0; w < ways; ++w)
            s.recency.push_back(w);
        return s;
    };
    llc.assign(geom.llc_sets, fresh(geom.llc_ways));
    mlc.assign(std::size_t(geom.num_cores) * geom.mlc_sets,
               fresh(geom.mlc_ways));
}

WorkloadCounters &
RefCache::wl(WorkloadId id)
{
    if (id >= wl_stats.size())
        wl_stats.resize(std::size_t(id) + 1);
    return wl_stats[id];
}

RefCache::Set &
RefCache::llcSet(Addr line)
{
    return llc[setIndex(line, geom.llc_sets)];
}

RefCache::Set &
RefCache::mlcSet(CoreId core, Addr line)
{
    return mlc[std::size_t(core) * geom.mlc_sets +
               setIndex(line ^ 0xA4A4'5EED'0000'0001ull, geom.mlc_sets)];
}

int
RefCache::find(const Set &s, Addr line)
{
    for (unsigned w = 0; w < s.ways.size(); ++w) {
        if (s.ways[w].valid && s.ways[w].line == line)
            return int(w);
    }
    return -1;
}

void
RefCache::touchLru(Set &s, unsigned way)
{
    s.recency.erase(std::find(s.recency.begin(), s.recency.end(), way));
    s.recency.push_back(way);
}

void
RefCache::touchLlc(Set &s, unsigned way)
{
    if (geom.replacement == LlcReplacement::Lru)
        touchLru(s, way);
    else
        s.ways[way].rrpv = 0;
}

// --- core side -----------------------------------------------------------

AccessResult
RefCache::coreRead(Tick now, CoreId core, Addr addr, WorkloadId id)
{
    return access(now, core, lineOf(addr), id, false);
}

AccessResult
RefCache::coreWrite(Tick now, CoreId core, Addr addr, WorkloadId id)
{
    return access(now, core, lineOf(addr), id, true);
}

AccessResult
RefCache::access(Tick now, CoreId core, Addr line, WorkloadId id,
                 bool write)
{
    Set &ms = mlcSet(core, line);
    if (int w = find(ms, line); w >= 0) {
        touchLru(ms, unsigned(w));
        ms.ways[w].dirty |= write;
        wl(id).mlc_hit.inc();
        return {HitLevel::MlcHit, lat.mlc_hit_ns};
    }
    wl(id).mlc_miss.inc();
    gstats.llc_lookups.inc();

    Set &ls = llcSet(line);
    if (int w = find(ls, line); w >= 0) {
        wl(id).llc_hit.inc();
        touchLlc(ls, unsigned(w));
        Way hit = ls.ways[w];
        if (hit.io) {
            // Rule 4: the read makes the I/O line shared LLC-inclusive,
            // so it moves into an inclusive way if not already there.
            hit.consumed = true;
            if (unsigned(w) < geom.firstInclusiveWay()) {
                ls.ways[w].valid = false;
                const WayMask incl = CatController::makeMask(
                    geom.firstInclusiveWay(), geom.llc_ways - 1);
                w = int(llcAllocate(now, ls, hit, incl, Cause::Migration));
                wl(hit.owner).migrated_inclusive.inc();
            }
            ls.ways[w].consumed = true;
            ls.ways[w].in_mlc = true;
            ls.ways[w].mlc_core = core;
            Way copy;
            copy.line = line;
            copy.owner = hit.owner;
            copy.dirty = write;
            copy.io = true;
            mlcFill(now, core, copy);
        } else {
            // Victim-cache hit: the line moves up to the MLC.
            ls.ways[w].valid = false;
            Way copy;
            copy.line = line;
            copy.owner = hit.owner;
            copy.dirty = hit.dirty || write;
            mlcFill(now, core, copy);
        }
        return {HitLevel::LlcHit, lat.llc_hit_ns};
    }

    // Rule 1: a miss reads memory and fills the MLC only.
    wl(id).llc_miss.inc();
    wl(id).mem_read_lines.inc();
    const double ns = dram.readLine(now);
    Way copy;
    copy.line = line;
    copy.owner = id;
    copy.dirty = write;
    mlcFill(now, core, copy);
    return {HitLevel::Memory, ns};
}

void
RefCache::mlcFill(Tick now, CoreId core, const Way &fill)
{
    Set &ms = mlcSet(core, fill.line);
    unsigned victim = 0;
    bool have_invalid = false;
    for (unsigned w = 0; w < ms.ways.size() && !have_invalid; ++w) {
        if (!ms.ways[w].valid) {
            victim = w;
            have_invalid = true;
        }
    }
    if (!have_invalid) {
        victim = ms.recency.front();
        const Way out = ms.ways[victim];
        Set &ls = llcSet(out.line);
        if (int w = find(ls, out.line); w >= 0) {
            // An LLC-inclusive line just loses its MLC copy.
            ls.ways[w].in_mlc = false;
            ls.ways[w].dirty |= out.dirty;
        } else {
            // Rules 2 and 7: the victim enters the LLC inside the
            // evicting core's CLOS mask; consumed I/O data is bloat.
            Way v = out;
            v.consumed = out.io;
            llcAllocate(now, ls, v, cat.maskForCore(core),
                        Cause::Capacity);
            if (out.io)
                wl(out.owner).bloat_inserts.inc();
        }
    }
    ms.ways[victim] = fill;
    ms.ways[victim].valid = true;
    touchLru(ms, victim);
}

void
RefCache::dropMlcCopy(CoreId core, Addr line)
{
    Set &ms = mlcSet(core, line);
    if (int w = find(ms, line); w >= 0)
        ms.ways[w].valid = false;
}

// --- LLC placement ---------------------------------------------------------

unsigned
RefCache::llcAllocate(Tick now, Set &s, const Way &fill, WayMask mask,
                      Cause cause)
{
    auto in_mask = [&](unsigned w) { return (mask >> w) & 1u; };
    int victim = -1;
    if (geom.replacement == LlcReplacement::Lru) {
        // An invalid way (lowest index first), else the LRU way.
        for (unsigned w = 0; w < s.ways.size() && victim < 0; ++w) {
            if (in_mask(w) && !s.ways[w].valid)
                victim = int(w);
        }
        for (auto it = s.recency.begin(); victim < 0; ++it) {
            if (in_mask(*it))
                victim = int(*it);
        }
    }
    while (victim < 0) {
        // SRRIP: the first way that is invalid or at the distant RRPV
        // (3); if none, age every candidate and rescan.
        for (unsigned w = 0; w < s.ways.size() && victim < 0; ++w) {
            if (in_mask(w) && (!s.ways[w].valid || s.ways[w].rrpv == 3))
                victim = int(w);
        }
        if (victim < 0) {
            for (unsigned w = 0; w < s.ways.size(); ++w) {
                if (in_mask(w))
                    ++s.ways[w].rrpv;
            }
        }
    }
    if (s.ways[victim].valid)
        llcEvict(now, s, unsigned(victim), cause);

    Way &slot = s.ways[victim];
    slot = fill;
    slot.valid = true;
    slot.in_mlc = false;
    slot.mlc_core = 0;
    if (geom.replacement == LlcReplacement::Lru)
        touchLru(s, unsigned(victim));
    else
        slot.rrpv = 2;
    return unsigned(victim);
}

void
RefCache::llcEvict(Tick now, Set &s, unsigned way, Cause cause)
{
    const Way &out = s.ways[way];
    WorkloadCounters &ow = wl(out.owner);
    gstats.llc_evictions.inc();
    if (way < geom.dca_ways)
        gstats.dca_evictions.inc();
    if (way >= geom.firstInclusiveWay())
        gstats.inclusive_evictions.inc();
    if (out.dirty) {
        gstats.llc_writebacks.inc();
        ow.mem_write_lines.inc();
        dram.writeLine(now);
    }
    if (out.io && !out.consumed)
        ow.dma_leaked.inc(); // rule 6
    if (cause == Cause::Migration)
        ow.evicted_by_migration.inc();
    s.ways[way].valid = false;
}

// --- device side -------------------------------------------------------------

void
RefCache::dmaWriteLine(Tick now, Addr addr, WorkloadId owner,
                       std::span<const CoreId> consumers, bool allocating)
{
    const Addr line = lineOf(addr);
    Set &ls = llcSet(line);
    const int w = find(ls, line);
    if (!allocating) {
        // Rule 8: the data goes to memory; cached copies are dropped.
        wl(owner).dma_nonalloc.inc();
        wl(owner).mem_write_lines.inc();
        dram.writeLine(now);
        if (w >= 0) {
            if (ls.ways[w].in_mlc)
                dropMlcCopy(ls.ways[w].mlc_core, line);
            ls.ways[w].valid = false;
        } else {
            for (CoreId c : consumers)
                dropMlcCopy(c, line);
        }
        return;
    }
    wl(owner).dma_lines_written.inc();
    if (w >= 0) {
        // Rule 5: write-update in place.
        Way &hit = ls.ways[w];
        if (hit.in_mlc) {
            dropMlcCopy(hit.mlc_core, line);
            hit.in_mlc = false;
        }
        hit.dirty = true;
        hit.io = true;
        hit.consumed = false;
        hit.owner = owner;
        touchLlc(ls, unsigned(w));
        wl(owner).dma_write_update.inc();
        return;
    }
    // Rule 5: write-allocate into the DCA ways.
    for (CoreId c : consumers)
        dropMlcCopy(c, line);
    Way fill;
    fill.line = line;
    fill.owner = owner;
    fill.dirty = true;
    fill.io = true;
    llcAllocate(now, ls, fill, CatController::makeMask(0, geom.dca_ways - 1),
                Cause::DmaAlloc);
    wl(owner).dma_write_alloc.inc();
}

bool
RefCache::dmaReadLine(Tick now, Addr addr, WorkloadId owner,
                      std::span<const CoreId> cores)
{
    const Addr line = lineOf(addr);
    Set &ls = llcSet(line);
    if (int w = find(ls, line); w >= 0) {
        touchLlc(ls, unsigned(w));
        return true;
    }
    // Rule 9: MLC-only data is read-allocated into the inclusive ways.
    for (CoreId c : cores) {
        Set &ms = mlcSet(c, line);
        if (int mw = find(ms, line); mw >= 0) {
            Way fill;
            fill.line = line;
            fill.owner = ms.ways[mw].owner;
            const unsigned nw = llcAllocate(
                now, ls, fill,
                CatController::makeMask(geom.firstInclusiveWay(),
                                        geom.llc_ways - 1),
                Cause::Capacity);
            ls.ways[nw].in_mlc = true;
            ls.ways[nw].mlc_core = c;
            gstats.egress_inclusive_alloc.inc();
            return true;
        }
    }
    wl(owner).mem_read_lines.inc();
    dram.readLine(now);
    return false;
}

std::vector<std::uint64_t>
RefCache::llcWayOccupancyOf(WorkloadId id) const
{
    std::vector<std::uint64_t> occ(geom.llc_ways, 0);
    for (const Set &s : llc) {
        for (unsigned w = 0; w < s.ways.size(); ++w)
            occ[w] += s.ways[w].valid && s.ways[w].owner == id;
    }
    return occ;
}

} // namespace a4::test
