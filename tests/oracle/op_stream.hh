/**
 * @file
 * Seeded cache operation stream shared by the cache property tests and
 * the differential oracle test.
 *
 * Each traffic class owns a disjoint buffer region, as real workloads
 * do: workload 1 on core 0, workload 2 on the other cores, workload 3
 * the I/O owner whose buffers core 0 consumes. The base mix draws core
 * reads and writes, allocating and non-allocating DMA writes and DMA
 * reads. With `control` on, the stream also reprograms CLOS 1's mask,
 * moves cores between CLOS 0 and 1 and toggles DDIO per port (DMA
 * writes go through port 0 or 1 and allocate iff that port's DDIO is
 * on).
 *
 * The base stream hands every DMA op core 0 as its consumer and only
 * touches workload 3's region. With `any_consumer` on, DMA ops target
 * any region (a device writing into, or sending from, a buffer some
 * core holds in its MLC), a DMA write names a random non-empty set of
 * consumer cores, and a DMA read looks in one random core's MLC. Its
 * extra draws come after the base draws of each op, so the base
 * stream of a seed is the same with the option off.
 *
 * With `runs` on, a quarter of the core and DMA ops become line runs
 * (coreRun, dmaWriteRun, dmaReadRun) of 0 to 40 lines from an
 * unaligned address inside the op's line, and a DMA run names 1 to 3
 * cores. Its draws come after those of `any_consumer`, again leaving
 * the streams without it unchanged.
 */

#ifndef A4_TESTS_ORACLE_OP_STREAM_HH
#define A4_TESTS_ORACLE_OP_STREAM_HH

#include <algorithm>
#include <bit>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "rdt/cat.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace a4::test
{

struct CacheOp
{
    enum Kind { Read, Write, DmaWrite, DmaRead, SetClosMask, AssignCore,
                SetDdio, CoreRun, DmaWriteRun, DmaReadRun };

    Kind kind = Read;
    Tick now = 0;
    CoreId core = 0;
    Addr addr = 0;
    WorkloadId wl = 0;
    bool allocating = false; ///< DmaWrite; SetDdio's new state
    unsigned port = 0;       ///< DmaWrite, SetDdio
    unsigned clos = 0;       ///< AssignCore
    WayMask mask = 0;        ///< SetClosMask (CLOS 1)
    /** DmaWrite's consumer cores, DmaRead's MLC cores (bit c = core
     *  c); the same for the DMA runs. */
    std::uint64_t consumers = 1;
    std::uint64_t lines = 0; ///< run length (the run kinds)
    bool write = false;      ///< CoreRun writes

    std::string
    str() const
    {
        static const char *names[] = {
            "read",         "write",       "dma_write",     "dma_read",
            "clos1_mask",   "assign_core", "ddio",          "core_run",
            "dma_write_run", "dma_read_run"};
        char buf[224];
        std::snprintf(buf, sizeof(buf),
                      "t=%llu %s core=%u addr=0x%llx wl=%u alloc=%d "
                      "port=%u clos=%u mask=0x%x consumers=0x%llx "
                      "lines=%llu write=%d",
                      static_cast<unsigned long long>(now), names[kind],
                      core, static_cast<unsigned long long>(addr), wl,
                      allocating, port, clos, mask,
                      static_cast<unsigned long long>(consumers),
                      static_cast<unsigned long long>(lines), write);
        return buf;
    }
};

class CacheOpStream
{
  public:
    static constexpr Addr kRegion1 = 0x1000000; ///< workload 1 (core 0)
    static constexpr Addr kRegion2 = 0x4000000; ///< workload 2
    static constexpr Addr kRegion3 = 0x8000000; ///< workload 3 (I/O)

    /**
     * @param cores cores in the geometry (2 to 64).
     * @param lines distinct lines per region.
     * @param llc_ways ways for the generated CLOS masks.
     * @param any_consumer widen the DMA ops (see the file comment).
     * @param runs turn some core and DMA ops into line runs.
     */
    CacheOpStream(std::uint64_t seed, unsigned cores, unsigned lines,
                  bool control, unsigned llc_ways = 11,
                  bool any_consumer = false, bool runs = false)
        : rng(seed), cores(cores), lines(lines), control(control),
          llc_ways(llc_ways), any_consumer(any_consumer), runs(runs)
    {}

    CacheOp
    next()
    {
        CacheOp op;
        op.now = i++;
        const Addr off = rng.below(lines) * kLineBytes;
        const auto kind = rng.below(control ? 9 : 6);
        switch (kind) {
          case 0:
          case 1:
            op.kind = kind == 0 ? CacheOp::Read : CacheOp::Write;
            op.addr = kRegion1 + off;
            op.wl = 1;
            break;
          case 2:
            op.kind = CacheOp::Read;
            op.core = 1 + CoreId(rng.below(cores - 1));
            op.addr = kRegion2 + off;
            op.wl = 2;
            break;
          case 3:
          case 4:
            op.kind = CacheOp::DmaWrite;
            op.port = unsigned(kind - 3);
            op.allocating = ddio[op.port];
            op.addr = kRegion3 + off;
            op.wl = 3;
            if (any_consumer) {
                op.addr = anyRegion() + off;
                op.consumers = 1 + rng.below(allCores());
            }
            break;
          case 5:
            op.kind = CacheOp::DmaRead;
            op.addr = kRegion3 + off;
            op.wl = 3;
            if (any_consumer) {
                op.addr = anyRegion() + off;
                op.consumers = std::uint64_t(1) << rng.below(cores);
            }
            break;
          case 6: {
            op.kind = CacheOp::SetClosMask;
            const auto lo = unsigned(rng.below(llc_ways));
            const auto hi = lo + unsigned(rng.below(llc_ways - lo));
            op.mask = CatController::makeMask(lo, hi);
            break;
          }
          case 7:
            op.kind = CacheOp::AssignCore;
            op.core = CoreId(rng.below(cores));
            op.clos = unsigned(rng.below(2));
            break;
          case 8:
            op.kind = CacheOp::SetDdio;
            op.port = unsigned(rng.below(2));
            op.allocating = ddio[op.port] = !ddio[op.port];
            break;
        }
        if (runs && op.kind <= CacheOp::DmaRead && rng.below(4) == 0)
            makeRun(op);
        return op;
    }

  private:
    /** Turn the core or DMA op @p op into the run that starts there. */
    void
    makeRun(CacheOp &op)
    {
        op.lines = rng.below(41);
        op.addr += rng.below(kLineBytes);
        switch (op.kind) {
          case CacheOp::Read:
          case CacheOp::Write:
            op.write = op.kind == CacheOp::Write;
            op.kind = CacheOp::CoreRun;
            return;
          case CacheOp::DmaWrite:
          case CacheOp::DmaRead:
            op.kind = op.kind == CacheOp::DmaWrite ? CacheOp::DmaWriteRun
                                                   : CacheOp::DmaReadRun;
            op.consumers = 0;
            for (auto n = std::min(cores, 1 + unsigned(rng.below(3)));
                 unsigned(std::popcount(op.consumers)) < n;)
                op.consumers |= std::uint64_t(1) << rng.below(cores);
            return;
          default:
            return;
        }
    }

    Addr
    anyRegion()
    {
        static constexpr Addr kRegions[3] = {kRegion1, kRegion2, kRegion3};
        return kRegions[rng.below(3)];
    }

    /** The mask of every core (cores <= 64). */
    std::uint64_t
    allCores() const
    {
        return cores == 64 ? ~std::uint64_t(0)
                           : (std::uint64_t(1) << cores) - 1;
    }

    Rng rng;
    unsigned cores;
    unsigned lines;
    bool control;
    unsigned llc_ways;
    bool any_consumer;
    bool runs;
    Tick i = 0;
    bool ddio[2] = {true, false};
};

/** What an op returned, one entry per line: (hit level, latency) of a
 *  core access, (served, 0) of a DMA read; empty for other ops. */
using OpOutcome = std::vector<std::pair<int, double>>;

/**
 * Apply @p op to @p model (CacheSystem or the reference model: both
 * offer coreRead/coreWrite/dmaWriteLine/dmaReadLine and the line runs)
 * and to the CAT it reads. A DMA op's cores are op.consumers in
 * ascending order. A DMA read run's outcome is its served count.
 */
template <typename Model>
OpOutcome
applyOp(const CacheOp &op, Model &model, CatController &cat)
{
    CoreId cores[64];
    std::size_t n = 0;
    for (std::uint64_t m = op.consumers; m != 0; m &= m - 1)
        cores[n++] = CoreId(std::countr_zero(m));
    const std::span<const CoreId> dma_cores(cores, n);
    switch (op.kind) {
      case CacheOp::Read:
      case CacheOp::Write: {
        const auto r = op.kind == CacheOp::Read
                           ? model.coreRead(op.now, op.core, op.addr, op.wl)
                           : model.coreWrite(op.now, op.core, op.addr,
                                             op.wl);
        return {{int(r.level), r.latency_ns}};
      }
      case CacheOp::DmaWrite:
        model.dmaWriteLine(op.now, op.addr, op.wl, dma_cores,
                           op.allocating);
        break;
      case CacheOp::DmaRead:
        return {{model.dmaReadLine(op.now, op.addr, op.wl, dma_cores),
                 0.0}};
      case CacheOp::CoreRun: {
        OpOutcome out;
        model.coreRun(op.now, op.core, op.addr, op.lines, op.wl, op.write,
                      [&out](const AccessResult &r) {
                          out.emplace_back(int(r.level), r.latency_ns);
                      });
        return out;
      }
      case CacheOp::DmaWriteRun:
        model.dmaWriteRun(op.now, op.addr, op.lines, op.wl, dma_cores,
                          op.allocating);
        break;
      case CacheOp::DmaReadRun:
        return {{int(model.dmaReadRun(op.now, op.addr, op.lines, op.wl,
                                      dma_cores)),
                 0.0}};
      case CacheOp::SetClosMask:
        cat.setClosMask(1, op.mask);
        break;
      case CacheOp::AssignCore:
        cat.assignCore(op.core, op.clos);
        break;
      case CacheOp::SetDdio:
        break; // the stream itself routes later DMA writes
    }
    return {};
}

} // namespace a4::test

#endif // A4_TESTS_ORACLE_OP_STREAM_HH
