/**
 * @file
 * Workload base class.
 *
 * A workload is a set of actors pinned to cores that issues accesses
 * into the cache hierarchy and (for I/O workloads) drives a device.
 * The base class carries identity (id, name, cores, I/O association)
 * and the common measurement instruments: completed operations,
 * payload bytes, an IPC proxy (instructions/cycles counters), and a
 * per-operation latency distribution.
 *
 * A4 never reads these objects directly — it observes workloads only
 * through the PCM facade and the descriptors registered with it, just
 * as the real daemon does. The accessors here serve the experiment
 * harness (ground-truth metrics for tables and figures).
 */

#ifndef A4_WORKLOAD_WORKLOAD_HH
#define A4_WORKLOAD_WORKLOAD_HH

#include <string>
#include <vector>

#include "iodev/pcie.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace a4
{

/** Port value meaning "not attached to any I/O device". */
inline constexpr PortId kNoPort = 0xFFFF;

/** Base class for all workload models. */
class Workload
{
  public:
    Workload(std::string name, WorkloadId id, std::vector<CoreId> cores)
        : name_(std::move(name)), id_(id), cores_(std::move(cores))
    {}

    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Begin scheduling actor events. Idempotent. */
    virtual void start() = 0;

    /** Stop issuing new work. Actors that re-arm themselves override
     *  this to drop their queued firings too, so start() after stop()
     *  leaves one chain per actor, not two. */
    virtual void stop() { active_ = false; }

    bool running() const { return active_; }

    /** @name Identity. @{ */
    const std::string &name() const { return name_; }
    WorkloadId id() const { return id_; }
    const std::vector<CoreId> &cores() const { return cores_; }
    virtual bool isIo() const { return false; }
    virtual PortId ioPort() const { return kNoPort; }
    virtual DeviceClass ioClass() const { return DeviceClass::Other; }
    /** @} */

    /** @name Measurement. @{ */
    /** Completed operations (packets, blocks, batches, requests). */
    const SnapshotCounter &ops() const { return ops_; }
    /** Payload bytes processed. */
    const SnapshotCounter &bytes() const { return bytes_; }
    /** Retired-instruction proxy. */
    const SnapshotCounter &instructions() const { return instr_; }
    /** Core-cycle proxy. */
    const SnapshotCounter &cycles() const { return cycles_; }
    /** Per-operation latency distribution. */
    LatencyStat &latency() { return lat_; }
    const LatencyStat &latency() const { return lat_; }
    /** Reset distribution state at a measurement-window boundary. */
    virtual void resetWindow() { lat_.reset(); }
    /** @} */

  protected:
    /** Book instructions executed over @p ns busy nanoseconds. */
    void
    retire(double instructions, double busy_ns, double freq_ghz)
    {
        instr_.add(static_cast<std::uint64_t>(instructions));
        cycles_.add(static_cast<std::uint64_t>(busy_ns * freq_ghz));
    }

    bool active_ = false;
    SnapshotCounter ops_;
    SnapshotCounter bytes_;
    SnapshotCounter instr_;
    SnapshotCounter cycles_;
    LatencyStat lat_;

  private:
    std::string name_;
    WorkloadId id_;
    std::vector<CoreId> cores_;
};

} // namespace a4

#endif // A4_WORKLOAD_WORKLOAD_HH
