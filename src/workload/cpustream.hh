/**
 * @file
 * Generic CPU access-stream workload.
 *
 * Parameterised by working-set size, access pattern, compute
 * intensity (instructions per memory access), memory-level
 * parallelism, and base CPI. X-Mem instances and the SPEC CPU2017
 * proxies are both configurations of this engine; the parameters are
 * the published characterisation knobs (working set, MPKI, locality)
 * rather than instruction traces.
 */

#ifndef A4_WORKLOAD_CPUSTREAM_HH
#define A4_WORKLOAD_CPUSTREAM_HH

#include <memory>

#include "cache/hierarchy.hh"
#include "sim/addrmap.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace a4
{

/** Configuration of a CPU stream workload. */
struct CpuStreamConfig
{
    enum class Pattern { SeqRead, SeqWrite, SeqRW, RandRead, RandRW };

    std::uint64_t ws_bytes = 4 * kMiB; ///< shared across the cores
    Pattern pattern = Pattern::SeqRead;
    double instr_per_access = 4.0; ///< non-memory instructions per access
    double cpi_base = 0.5;         ///< CPI of non-memory instructions
    double freq_ghz = 2.3;
    double mlp = 2.0;       ///< outstanding-miss overlap divisor
    unsigned batch = 256;   ///< accesses simulated per actor event
    std::uint64_t seed = 7;
};

/** CPU workload issuing a parameterised access stream from N cores. */
class CpuStreamWorkload : public Workload
{
  public:
    CpuStreamWorkload(std::string name, WorkloadId id,
                      std::vector<CoreId> cores, Engine &eng,
                      CacheSystem &cache, AddressMap &addrs,
                      const CpuStreamConfig &cfg);

    void start() override;
    void stop() override;

    const CpuStreamConfig &config() const { return cfg; }

    /** Instantaneous IPC proxy over the whole run. */
    double
    ipc() const
    {
        return ratio(static_cast<double>(instructions().value()),
                     static_cast<double>(cycles().value()));
    }

  private:
    void runBatch(unsigned lane);
    Addr nextAddr(unsigned lane, bool &is_write);

    Engine &eng;
    CacheSystem &cache;
    CpuStreamConfig cfg;
    Addr base;
    std::uint64_t ws_lines;

    struct Lane
    {
        CoreId core;
        std::uint64_t pos = 0;
        Rng rng{1};
        bool write_toggle = false;
        Engine::Recurring batch_ev; ///< self-rescheduling batch actor
    };
    std::vector<Lane> lanes;
};

} // namespace a4

#endif // A4_WORKLOAD_CPUSTREAM_HH
