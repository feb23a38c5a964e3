#include "sim/engine.hh"

#include "sim/log.hh"

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

void
Engine::growFifo(DelayFifo &f)
{
    const std::uint32_t cap = f.capacity == 0 ? 16 : 2 * f.capacity;
    auto ring = std::make_unique<QueuedEvent[]>(cap);
    for (std::uint32_t i = 0; i < f.size; ++i)
        ring[i] = f.ring[(f.head + i) & (f.capacity - 1)];
    f.ring = std::move(ring);
    f.capacity = cap;
    f.head = 0;
}

void
Engine::refillFront()
{
    const unsigned __int128 heap = queue.empty() ? kNoKey : queue.top().key;
    if (fifo_least_ < heap) {
        front = fifoPop(fifo_least_i_);
        fifo_least_ = kNoKey;
        for (unsigned i = 0; i < kDelayFifos; ++i) {
            if (fifo_head_[i] < fifo_least_) {
                fifo_least_ = fifo_head_[i];
                fifo_least_i_ = i;
            }
        }
    } else if (heap != kNoKey) {
        front = queue.top();
        queue.pop();
    } else {
        has_front = false;
    }
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
        // Refill the front cache before running the callback;
        // anything it schedules re-enters through the enqueue paths.
        refillFront();
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

} // namespace a4
