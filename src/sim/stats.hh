/**
 * @file
 * Statistics primitives: latency distributions and windowed rates.
 */

#ifndef A4_SIM_STATS_HH
#define A4_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace a4
{

/**
 * Latency distribution with reservoir sampling for percentiles.
 *
 * Records arbitrary many samples in O(1) memory. Exact count/mean/max
 * are maintained; percentiles are estimated from a uniform reservoir
 * of up to kReservoir samples, which is ample for p99 at the sample
 * volumes the experiments produce.
 */
class LatencyStat
{
  public:
    LatencyStat();

    /** Record one sample (nanoseconds, but unit-agnostic). */
    void record(double v);

    /** Merge another distribution into this one (for multi-core sums). */
    void merge(const LatencyStat &other);

    /** Discard all samples. */
    void reset();

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

    /**
     * Percentile estimate from the reservoir.
     * @param p in [0, 100], e.g. 99.0 for the p99 tail.
     */
    double percentile(double p) const;

  private:
    static constexpr std::size_t kReservoir = 8192;

    std::uint64_t n;
    double sum;
    double lo;
    double hi;
    std::vector<double> reservoir;
    Rng rng;
};

/**
 * Monotonic counter with snapshot-delta support.
 *
 * The simulator increments the raw value; monitors call delta() against
 * a caller-held previous snapshot to obtain per-interval rates, exactly
 * as performance-counter reads work on real hardware.
 */
class SnapshotCounter
{
  public:
    SnapshotCounter() : value_(0) {}

    void add(std::uint64_t d) { value_ += d; }
    void inc() { ++value_; }
    std::uint64_t value() const { return value_; }

    /** Difference against @p prev, updating prev to the current value. */
    std::uint64_t
    delta(std::uint64_t &prev) const
    {
        std::uint64_t d = value_ - prev;
        prev = value_;
        return d;
    }

  private:
    std::uint64_t value_;
};

/** Ratio helper tolerating a zero denominator. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace a4

#endif // A4_SIM_STATS_HH
