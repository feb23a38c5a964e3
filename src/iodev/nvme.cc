#include "iodev/nvme.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/log.hh"

namespace a4
{

bool
SsdConfig::lazyFromEnv()
{
    const char *env = std::getenv("A4_NVME_LAZY");
    if (env == nullptr)
        return true;
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "false") == 0)
        return false;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
        std::strcmp(env, "true") == 0)
        return true;
    static std::string warned;
    warnOncePerValue(warned, env,
                     "warning: A4_NVME_LAZY: ignoring malformed value "
                     "'%s' (want 0/off or 1/on)\n");
    return true;
}

SsdArray::SsdArray(Engine &eng_, DmaEngine &dma_, PortId port_,
                   const SsdConfig &config)
    : eng(eng_), dma(dma_), csys(dma_.cacheSystem()), port(port_),
      cfg(config)
{
    if (!(cfg.link_bw_bps > 0.0)) // NaN fails too
        fatal("SsdArray: link bandwidth must be positive");
    if (cfg.parallelism == 0)
        fatal("SsdArray: parallelism must be >= 1");

    // Per-completion carrier (equivalence baseline): each firing
    // drains the barrier — which applies the completion it was armed
    // for, unless an observer already did — and re-arms at the next
    // pending completion.
    step_ev.init(eng, [this] {
        step_armed = false;
        csys.drainDeferred(eng.now());
        // The drain may already have re-armed through a chained
        // startCommand (completion callbacks resubmit); arming twice
        // queues two firings, so only arm when that did not happen.
        if (!step_armed && !pending_done.empty()) {
            step_ev.armAt(inflight[pending_done.front()].done_at);
            step_armed = true;
        }
    });

    csys.attachDeferredSource(*this);
}

SsdArray::~SsdArray()
{
    csys.detachDeferredSource(*this);
}

void
SsdArray::submitRead(Tick now, Addr buf, std::uint64_t bytes,
                     WorkloadId owner, std::vector<CoreId> consumers,
                     Completion done)
{
    queue.push_back(Command{true, buf, bytes, owner, std::move(consumers),
                            std::move(done), 0});
    tryStart(now);
}

void
SsdArray::submitWrite(Tick now, Addr buf, std::uint64_t bytes,
                      WorkloadId owner, std::vector<CoreId> cores,
                      Completion done)
{
    queue.push_back(Command{false, buf, bytes, owner, std::move(cores),
                            std::move(done), 0});
    tryStart(now);
}

void
SsdArray::tryStart(Tick now)
{
    while (active < cfg.parallelism && !queue.empty()) {
        Command cmd = std::move(queue.front());
        queue.pop_front();
        startCommand(now, std::move(cmd));
    }
}

void
SsdArray::startCommand(Tick now, Command cmd)
{
    ++active;
    // Flash access overlaps across channels; the host link transfer is
    // serialized and caps aggregate throughput. link_free_at is
    // monotone, so completions happen in start order — the pending
    // FIFO below stays sorted by construction.
    Tick flash_done = now + cfg.cmd_overhead;
    double transfer_ns =
        static_cast<double>(cmd.bytes) / cfg.link_bw_bps * 1e9;
    Tick link_start = std::max(flash_done, link_free_at);
    link_free_at = link_start + static_cast<Tick>(transfer_ns) + 1;
    cmd.done_at = link_free_at;

    // Park the command in a recycled in-flight slot; the pending
    // completion carries only the slot index.
    std::uint32_t slot;
    if (free_slots.empty()) {
        slot = static_cast<std::uint32_t>(inflight.size());
        inflight.push_back(std::move(cmd));
    } else {
        slot = free_slots.back();
        free_slots.pop_back();
        inflight[slot] = std::move(cmd);
    }
    pending_done.push_back(slot);
    csys.noteDeferredTick(*this);
    if (!cfg.lazy_completions && !step_armed) {
        step_ev.armAt(inflight[pending_done.front()].done_at);
        step_armed = true;
    }
}

Tick
SsdArray::deferredTick() const
{
    if (pending_done.empty())
        return kNoDeferredIo;
    return inflight[pending_done.front()].done_at;
}

void
SsdArray::applyDeferredAccess()
{
    const std::uint32_t slot = pending_done.front();
    pending_done.pop_front();
    finish(slot);
}

void
SsdArray::finish(std::uint32_t slot)
{
    Command cmd = std::move(inflight[slot]);
    free_slots.push_back(slot);
    --active;
    const Tick when = cmd.done_at;
    if (cmd.is_read) {
        dma.write(when, port, cmd.buf, cmd.bytes, cmd.owner, cmd.cores);
        reads_done.inc();
    } else {
        dma.read(when, port, cmd.buf, cmd.bytes, cmd.owner, cmd.cores);
        writes_done.inc();
    }
    // The callback may chain a submission; it runs in virtual time
    // `when`, and tryStart() below starts queued commands from the
    // same instant — exactly when the link slot freed up.
    if (cmd.done)
        cmd.done(when);
    tryStart(when);
}

unsigned
SsdArray::inFlight()
{
    csys.drainDeferred(eng.now());
    return active;
}

const SnapshotCounter &
SsdArray::completedReads()
{
    csys.drainDeferred(eng.now());
    return reads_done;
}

const SnapshotCounter &
SsdArray::completedWrites()
{
    csys.drainDeferred(eng.now());
    return writes_done;
}

} // namespace a4
