#include "sim/engine.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/serialize.hh"

namespace a4
{

void
Engine::growSlab()
{
    auto chunk = std::make_unique<Slot[]>(kChunkSlots);
    // Link the fresh chunk into the free list in index order.
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
        chunk[i].next_free =
            i + 1 < kChunkSlots ? &chunk[i + 1] : free_head;
    }
    free_head = &chunk[0];
    chunks.push_back(std::move(chunk));
    slot_count += kChunkSlots;
}

Tick
Engine::checkWhen(Tick when)
{
    if (when < now_) [[unlikely]] {
        ++past_events;
#ifndef NDEBUG
        panic(sformat("Engine: event scheduled %llu ticks in the past "
                      "(when=%llu, now=%llu)",
                      static_cast<unsigned long long>(now_ - when),
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_)));
#endif
        return now_;
    }
    return when;
}

void
Engine::runUntil(Tick when)
{
    while (has_front && whenOf(front) <= when) {
        const QueuedEvent ev = front;
        // Refill the front cache from the heap before running the
        // callback; anything it schedules re-enters through enqueue().
        if (!queue.empty()) {
            front = queue.top();
            queue.pop();
        } else {
            has_front = false;
        }
        Slot &s = *ev.slot;
        if (s.gen != ev.gen)
            continue; // cancelled or re-initialised since queuing
        now_ = whenOf(ev);
        ++fired;
        // Invoke in place: chunked storage keeps the capture's address
        // stable even if the callback grows the slab by scheduling.
        s.cb.invoke();
        // The generation re-check makes Recurring::reset() (or
        // re-init()) from inside the slot's own callback safe: the
        // callback already freed the slot, so freeing it again here
        // would corrupt the free list.
        if (!s.sticky && s.gen == ev.gen)
            freeSlot(s);
    }
    if (now_ < when)
        now_ = when;
}

// --------------------------------------------------------------------
// Snapshot protocol (see the note in engine.hh).

void
Engine::saveBegin(Serializer &s)
{
    if (in_save_ || in_restore_)
        throw SnapshotError("Engine: nested snapshot operation");

    s.begin("engine");
    s.u64(now_);
    s.u64(next_seq);
    s.u64(fired);
    s.u64(past_events);
    s.u64(batch_firings);
    s.u64(batch_expanded);

    // Index every live queued event by slot. std::priority_queue
    // hides its container, but a derived local class may name the
    // protected member.
    using Heap = std::priority_queue<QueuedEvent,
                                     std::vector<QueuedEvent>, Later>;
    struct Access : Heap
    {
        static const std::vector<QueuedEvent> &
        container(const Heap &q)
        {
            return q.*&Access::c;
        }
    };

    save_index_.clear();
    save_unclaimed_ = 0;
    auto note = [&](const QueuedEvent &ev) {
        if (ev.slot->gen != ev.gen)
            return; // cancelled or re-initialised: could never fire
        if (!ev.slot->sticky)
            throw SnapshotError(
                "Engine: live one-shot event (raw schedule()) cannot "
                "be snapshotted");
        save_index_[ev.slot].push_back(ev.key);
        ++save_unclaimed_;
    };
    if (has_front)
        note(front);
    for (const QueuedEvent &ev : Access::container(queue))
        note(ev);
    for (auto &[slot, keys] : save_index_)
        std::sort(keys.begin(), keys.end());

    s.u64(save_unclaimed_);
    in_save_ = true;
}

void
Engine::saveEnd(Serializer &s)
{
    if (!in_save_)
        throw SnapshotError("Engine::saveEnd without saveBegin");
    in_save_ = false;
    const std::size_t unclaimed = save_unclaimed_;
    save_index_.clear();
    save_unclaimed_ = 0;
    if (unclaimed != 0)
        throw SnapshotError(sformat(
            "Engine: %zu live events were not claimed by any "
            "component's save hook", unclaimed));
    s.end("engine");
}

void
Engine::restoreBegin(Deserializer &d)
{
    if (in_save_ || in_restore_)
        throw SnapshotError("Engine: nested snapshot operation");
    if (pending() != 0)
        throw SnapshotError(sformat(
            "Engine: restore into a non-empty queue (%zu pending)",
            pending()));

    d.begin("engine");
    now_ = d.u64();
    next_seq = d.u64();
    fired = d.u64();
    past_events = d.u64();
    batch_firings = d.u64();
    batch_expanded = d.u64();
    restore_expected_ = d.u64();
    in_restore_ = true;
}

void
Engine::restoreEnd(Deserializer &d)
{
    if (!in_restore_)
        throw SnapshotError("Engine::restoreEnd without restoreBegin");
    in_restore_ = false;
    const std::uint64_t missing = restore_expected_;
    restore_expected_ = 0;
    if (missing != 0)
        throw SnapshotError(sformat(
            "Engine: %llu saved events were never re-armed",
            static_cast<unsigned long long>(missing)));
    d.end("engine");
}

std::vector<unsigned __int128>
Engine::claimQueuedKeys(const Slot *slot)
{
    if (!in_save_)
        throw SnapshotError(
            "Engine: saveQueued outside a saveBegin/saveEnd bracket");
    auto it = save_index_.find(slot);
    if (it == save_index_.end())
        return {};
    std::vector<unsigned __int128> keys = std::move(it->second);
    save_index_.erase(it);
    save_unclaimed_ -= keys.size();
    return keys;
}

void
Engine::armRestoredKey(unsigned __int128 key, Slot *slot)
{
    if (!in_restore_)
        throw SnapshotError(
            "Engine: restoreQueued outside a restoreBegin/restoreEnd "
            "bracket");
    if (restore_expected_ == 0)
        throw SnapshotError(
            "Engine: more keys re-armed than the snapshot recorded");
    if (static_cast<std::uint64_t>(key) >= next_seq)
        throw SnapshotError(
            "Engine: restored key's sequence is past the saved "
            "next_seq");
    --restore_expected_;
    enqueue(QueuedEvent{key, slot, slot->gen});
}

void
Engine::Recurring::saveQueued(Serializer &s) const
{
    s.boolean(initialized());
    if (!initialized())
        return;
    const auto keys = eng_->claimQueuedKeys(slot_);
    s.u64(keys.size());
    for (unsigned __int128 key : keys)
        s.u128(key);
}

void
Engine::Recurring::restoreQueued(Deserializer &d)
{
    const bool was_init = d.boolean();
    if (!was_init)
        return; // never initialized on the saved side: nothing queued
    if (!initialized())
        throw SnapshotError(
            "Recurring: restoring queued firings into an "
            "uninitialized slot");
    const std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i)
        eng_->armRestoredKey(d.u128(), slot_);
}

void
Engine::Batch::saveState(Serializer &s) const
{
    s.boolean(active_);
    s.u64(period_);
    s.u64(last_);
    ev_.saveQueued(s);
}

void
Engine::Batch::restoreState(Deserializer &d)
{
    active_ = d.boolean();
    period_ = d.u64();
    last_ = d.u64();
    ev_.restoreQueued(d);
}

} // namespace a4
