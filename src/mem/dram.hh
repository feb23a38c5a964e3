/**
 * @file
 * Main-memory model: bandwidth accounting plus load-dependent latency.
 *
 * The model is deliberately coarse — the experiments in the paper read
 * memory bandwidth as a *symptom* (DMA leak, bloat) and latency as a
 * *penalty*. We track read/write byte counters (snapshot-compatible
 * with the PCM facade) and derive an effective access latency that
 * grows with recent channel utilisation, saturating like a real DDR4
 * subsystem under queueing.
 */

#ifndef A4_MEM_DRAM_HH
#define A4_MEM_DRAM_HH

#include <cstdint>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace a4
{

/** Configuration for the DRAM model. */
struct DramConfig
{
    /** Unloaded read latency (ns). */
    double base_latency_ns = 90.0;
    /** Peak sustainable bandwidth in bytes per second. */
    double peak_bw_bps = 128.0 * 1e9;
    /** Utilisation window for the latency model (ns). */
    Tick window_ns = 100 * kUsec;
};

/**
 * DDR4 memory subsystem stand-in.
 *
 * All cache fills/writebacks and non-allocating DMA traffic call into
 * readLine()/writeLine(); callers receive the current effective
 * latency, which they fold into their own service-time accounting.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg = DramConfig());

    /** Account one cache-line read; returns effective latency (ns). */
    double readLine(Tick now);

    /** Account one cache-line write; returns effective latency (ns). */
    double writeLine(Tick now);

    /** Account a bulk transfer of @p bytes (DMA bypassing the LLC). */
    void readBulk(Tick now, std::uint64_t bytes);
    void writeBulk(Tick now, std::uint64_t bytes);

    /** Effective read latency at the current utilisation (ns). */
    double effectiveLatency(Tick now) const;

    /** Utilisation of the last window, in [0, ~1.2]. */
    double utilization(Tick now) const;

    /** @name Raw byte counters (monotonic; PCM snapshots them). @{ */
    const SnapshotCounter &readBytes() const { return rd_bytes; }
    const SnapshotCounter &writeBytes() const { return wr_bytes; }
    /** @} */

    const DramConfig &config() const { return cfg; }

  private:
    void roll(Tick now) const;
    /** utilization() and effectiveLatency() of a window already
     *  rolled to @p now. */
    double rolledUtilization(Tick now) const;
    double rolledLatency(Tick now) const;

    DramConfig cfg;
    double window_capacity; ///< bytes the window carries at peak
    SnapshotCounter rd_bytes;
    SnapshotCounter wr_bytes;

    // Two-bucket sliding window of recent traffic for utilisation.
    mutable Tick window_start = 0;
    mutable std::uint64_t cur_window_bytes = 0;
    mutable std::uint64_t prev_window_bytes = 0;
};

} // namespace a4

#endif // A4_MEM_DRAM_HH
