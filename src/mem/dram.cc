#include "mem/dram.hh"

#include <algorithm>

#include "sim/log.hh"

namespace a4
{

Dram::Dram(const DramConfig &config)
    : cfg(config), window_capacity(cfg.peak_bw_bps *
                                   (static_cast<double>(cfg.window_ns) /
                                    1e9))
{
    if (cfg.peak_bw_bps <= 0.0)
        fatal("Dram: peak bandwidth must be positive");
    if (cfg.window_ns == 0)
        fatal("Dram: utilisation window must be non-zero");
}

void
Dram::roll(Tick now) const
{
    // Advance the two-bucket window so stale traffic ages out.
    while (now >= window_start + cfg.window_ns) {
        window_start += cfg.window_ns;
        prev_window_bytes = cur_window_bytes;
        cur_window_bytes = 0;
        // Fast-forward across long idle gaps.
        if (now >= window_start + 2 * cfg.window_ns) {
            window_start = now - (now % cfg.window_ns);
            prev_window_bytes = 0;
        }
    }
}

double
Dram::utilization(Tick now) const
{
    roll(now);
    return rolledUtilization(now);
}

double
Dram::rolledUtilization(Tick now) const
{
    // Blend the completed bucket with the in-progress one.
    double elapsed = static_cast<double>(now - window_start);
    double span = static_cast<double>(cfg.window_ns);
    double frac = std::clamp(elapsed / span, 0.0, 1.0);
    double bytes = static_cast<double>(prev_window_bytes) * (1.0 - frac) +
                   static_cast<double>(cur_window_bytes);
    return bytes / window_capacity;
}

double
Dram::effectiveLatency(Tick now) const
{
    roll(now);
    return rolledLatency(now);
}

double
Dram::rolledLatency(Tick now) const
{
    // Classic closed-form queueing knee: latency grows hyperbolically
    // with utilisation. Clamping u at 0.97 is the ceiling: the factor
    // never exceeds 1 / (1 - 0.75 * 0.97), about 3.67x unloaded.
    double u = std::min(rolledUtilization(now), 0.97);
    double factor = 1.0 / (1.0 - 0.75 * u);
    return cfg.base_latency_ns * factor;
}

double
Dram::readLine(Tick now)
{
    roll(now);
    rd_bytes.add(kLineBytes);
    cur_window_bytes += kLineBytes;
    return rolledLatency(now);
}

double
Dram::writeLine(Tick now)
{
    roll(now);
    wr_bytes.add(kLineBytes);
    cur_window_bytes += kLineBytes;
    // Writes are posted; they cost bandwidth, not core-visible latency.
    return 0.0;
}

void
Dram::readBulk(Tick now, std::uint64_t bytes)
{
    roll(now);
    rd_bytes.add(bytes);
    cur_window_bytes += bytes;
}

void
Dram::writeBulk(Tick now, std::uint64_t bytes)
{
    roll(now);
    wr_bytes.add(bytes);
    cur_window_bytes += bytes;
}

} // namespace a4
