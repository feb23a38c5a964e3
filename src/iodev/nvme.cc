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
    if (cfg.link_bw_bps <= 0.0)
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
                     Completion done, IoTag tag)
{
    queue.push_back(Command{true, buf, bytes, owner, std::move(consumers),
                            std::move(done), tag, 0});
    tryStart(now);
}

void
SsdArray::submitWrite(Tick now, Addr buf, std::uint64_t bytes,
                      WorkloadId owner, std::vector<CoreId> cores,
                      Completion done, IoTag tag)
{
    queue.push_back(Command{false, buf, bytes, owner, std::move(cores),
                            std::move(done), tag, 0});
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

void
SsdArray::saveState(Serializer &s) const
{
    auto saveCommand = [&s](const Command &cmd) {
        // A live command whose completion cannot be rebuilt from a
        // tag makes the whole image unusable — abort the snapshot
        // (the caller falls back to a cold run).
        if (cmd.done && !cmd.tag.valid)
            throw SnapshotError(
                "SsdArray: live command has an untagged completion");
        s.boolean(cmd.is_read);
        s.u64(cmd.buf);
        s.u64(cmd.bytes);
        s.u64(cmd.owner);
        s.podVec(cmd.cores);
        s.u64(cmd.done_at);
        s.boolean(static_cast<bool>(cmd.done));
        if (cmd.done) {
            s.u64(cmd.tag.a);
            s.u64(cmd.tag.b);
            s.u64(cmd.tag.c);
        }
    };

    s.begin("ssd");
    s.u32(active);
    s.u64(link_free_at);
    s.u64(queue.size());
    for (const Command &cmd : queue)
        saveCommand(cmd);
    // Live in-flight slots are exactly the pending_done entries (a
    // command leaves its slot only through finish(), which frees it);
    // saving the slot *indices* preserves the recycling order, which
    // a bit-identical restored run must replay.
    s.u64(inflight.size());
    s.podVec(free_slots);
    s.u64(pending_done.size());
    for (std::uint32_t slot : pending_done)
        s.u32(slot);
    for (std::uint32_t slot : pending_done)
        saveCommand(inflight[slot]);
    s.boolean(step_armed);
    step_ev.saveQueued(s);
    reads_done.saveState(s);
    writes_done.saveState(s);
    s.end("ssd");
}

void
SsdArray::restoreState(Deserializer &d)
{
    auto restoreCommand = [this, &d]() -> Command {
        Command cmd;
        cmd.is_read = d.boolean();
        cmd.buf = d.u64();
        cmd.bytes = d.u64();
        cmd.owner = static_cast<WorkloadId>(d.u64());
        d.podVec(cmd.cores);
        cmd.done_at = d.u64();
        if (d.boolean()) {
            cmd.tag.a = d.u64();
            cmd.tag.b = d.u64();
            cmd.tag.c = d.u64();
            cmd.tag.valid = true;
            auto it = resolvers.find(cmd.owner);
            if (it == resolvers.end())
                throw SnapshotError(sformat(
                    "SsdArray: no completion resolver for workload %u",
                    unsigned(cmd.owner)));
            cmd.done = it->second(cmd.tag);
            if (!cmd.done)
                throw SnapshotError(
                    "SsdArray: resolver rejected a saved IoTag");
        }
        return cmd;
    };

    d.begin("ssd");
    active = d.u32();
    link_free_at = d.u64();
    queue.clear();
    const std::uint64_t queued = d.u64();
    for (std::uint64_t i = 0; i < queued; ++i)
        queue.push_back(restoreCommand());
    inflight.clear();
    inflight.resize(d.u64());
    d.podVec(free_slots);
    pending_done.clear();
    const std::uint64_t pending = d.u64();
    for (std::uint64_t i = 0; i < pending; ++i) {
        const std::uint32_t slot = d.u32();
        if (slot >= inflight.size())
            throw SnapshotError("SsdArray: pending slot out of range");
        pending_done.push_back(slot);
    }
    for (std::uint32_t slot : pending_done)
        inflight[slot] = restoreCommand();
    step_armed = d.boolean();
    step_ev.restoreQueued(d);
    reads_done.restoreState(d);
    writes_done.restoreState(d);
    csys.noteDeferredTick(*this); // see Nic::restoreState
    d.end("ssd");
}

} // namespace a4
