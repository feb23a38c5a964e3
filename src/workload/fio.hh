/**
 * @file
 * FIO-style storage workload (§3.2): libaio threads issuing O_DIRECT
 * random reads with a configurable block size and queue depth, each
 * block regex-scanned after completion (the paper's modified FIO) so
 * storage blocks demonstrably travel through the consumer's MLC.
 *
 * Flow per buffer: submitRead -> device DMA-writes the block (DDIO
 * path decides DCA vs memory) -> consumer core scans every line
 * (coreRead + regex cost) -> optional write-back (egress DMA read;
 * used by the FFSB configurations) -> resubmit.
 *
 * Completion-timing contract: the SSD delivers completions lazily
 * behind the cache observation barrier (see nvme.hh), so completion
 * callbacks run in *virtual* time — they receive the completion tick
 * and thread it through latency records and chained submissions
 * instead of reading Engine::now(). The consume loop drains the
 * barrier before checking for completed buffers, which is what makes
 * lazy delivery tick-for-tick identical to per-completion events.
 *
 * Each job owns `iodepth` block buffers, so `jobs * iodepth` commands
 * are outstanding — the "deep queues + large blocks" regime whose DMA
 * leak the paper dissects.
 */

#ifndef A4_WORKLOAD_FIO_HH
#define A4_WORKLOAD_FIO_HH

#include <deque>
#include <vector>

#include "cache/hierarchy.hh"
#include "iodev/nvme.hh"
#include "sim/addrmap.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace a4
{

/** FIO workload configuration. */
struct FioConfig
{
    unsigned num_jobs = 4;  ///< libaio threads, one core each
    unsigned iodepth = 32;  ///< outstanding reads per job
    std::uint64_t block_bytes = 128 * kKiB;
    bool consume = true;    ///< regex-scan completed blocks
    double regex_ns_per_line = 8.0;
    double mlp = 8.0;       ///< sequential-scan overlap
    double write_mix = 0.0; ///< P(write-back after consume); FFSB > 0
    Tick idle_poll_ns = 2 * kUsec;
    std::uint64_t seed = 99;
};

/** Storage reader/scanner over an SsdArray. */
class FioWorkload : public Workload
{
  public:
    FioWorkload(std::string name, WorkloadId id,
                std::vector<CoreId> cores, Engine &eng,
                CacheSystem &cache, AddressMap &addrs, SsdArray &ssd,
                const FioConfig &cfg);

    void start() override;

    bool isIo() const override { return true; }
    PortId ioPort() const override { return ssd.portId(); }
    DeviceClass ioClass() const override { return DeviceClass::Storage; }

    const FioConfig &config() const { return cfg; }

    /** @name Latency breakdown (Fig. 14b). @{ */
    LatencyStat &readLatency() { return read_lat; }   ///< submit->DMA done
    LatencyStat &regexLatency() { return regex_lat; } ///< consumption
    LatencyStat &writeLatency() { return write_lat; } ///< write-back
    /** @} */

    void
    resetWindow() override
    {
        Workload::resetWindow();
        read_lat.reset();
        regex_lat.reset();
        write_lat.reset();
    }

  private:
    struct Buffer
    {
        Addr base;
        Tick submit_time = 0;
        Tick dma_done = 0;
    };

    struct Job
    {
        CoreId core;
        std::vector<Buffer> buffers;
        std::deque<unsigned> completed; ///< buffer indices ready to scan
        bool consuming = false;      ///< a consume continuation is live
        bool pump_scheduled = false; ///< an idle re-poll is queued
        unsigned consume_buf = 0;    ///< buffer the live scan works on
        Engine::Recurring pump_ev;   ///< idle re-poll actor
        Engine::Recurring consume_done_ev; ///< scan-finished actor
    };

    void submitRead(Tick now, unsigned job, unsigned buf);
    void onReadComplete(Tick done_at, unsigned job, unsigned buf);
    void schedulePump(unsigned job, Tick delay);
    void consumeNext(unsigned job);
    void onConsumeDone(unsigned job);
    void finishBlock(Tick now, unsigned job, unsigned buf);

    Engine &eng;
    CacheSystem &cache;
    SsdArray &ssd;
    FioConfig cfg;
    Rng rng;
    std::vector<Job> jobs;

    LatencyStat read_lat;
    LatencyStat regex_lat;
    LatencyStat write_lat;
};

} // namespace a4

#endif // A4_WORKLOAD_FIO_HH
