#include "sim/engine.hh"

#include <algorithm>

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

bool
Engine::forkBefore(const Fork *a, const Fork *b)
{
    // Walk both paths from the first fork on; shared forks are the
    // same records.
    std::vector<const Fork *> pa, pb;
    for (; a != nullptr; a = a->up)
        pa.push_back(a);
    for (; b != nullptr; b = b->up)
        pb.push_back(b);
    auto ia = pa.rbegin(), ib = pb.rbegin();
    for (; ia != pa.rend() && ib != pb.rend(); ++ia, ++ib) {
        if (*ia == *ib)
            continue;
        if ((*ia)->tick != (*ib)->tick)
            return (*ia)->tick > (*ib)->tick; // b branched off first
        return (*ia)->index < (*ib)->index;
    }
    return ia == pa.rend() && ib != pb.rend();
}

void
Engine::addSleeper(const Sleeper &s)
{
    sleepers_.push_back(s);
    std::push_heap(sleepers_.begin(), sleepers_.end(),
                   sleeperAfter);
    wake_next_ = sleepers_.front().wake;
}

void
Engine::wake()
{
    std::pop_heap(sleepers_.begin(), sleepers_.end(),
                  sleeperAfter);
    const Sleeper s = sleepers_.back();
    sleepers_.pop_back();
    wake_next_ = sleepers_.empty() ? kNever : sleepers_.front().wake;
    if (s.slot->gen != s.gen)
        return; // cancelled or re-initialised since sleeping
    now_ = s.wake;
    // The firing the skipped re-arms lead to: scheduled by a firing
    // one period back, on the sleeper's chain.
    const QueuedEvent ev{static_cast<unsigned __int128>(s.wake) << 64,
                         s.slot, s.gen, capDelay(s.period), kFiring,
                         s.chain};
    cur_ = &ev;
    cur_ord_ = fired++;
    cur_children_.clear();
    s.slot->cb.invoke(); // a Recurring slot: sticky, never freed here
}

void
Engine::runUntil(Tick when)
{
    running_ = true;
    for (;;) {
        const bool due = has_front && whenOf(front) <= when;
        if (wake_next_ <= (due ? whenOf(front) : when) &&
            (!due || wakesBefore(sleepers_.front(), front))) {
            wake();
            continue;
        }
        if (!due)
            break;
        const QueuedEvent ev = front;
        // Refill the front cache before running the callback;
        // anything it schedules re-enters through the enqueue paths.
        refillFront();
        Slot &s = *ev.slot;
        if (s.gen != ev.gen)
            continue; // cancelled or re-initialised since queuing
        now_ = whenOf(ev);
        cur_ = &ev;
        cur_ord_ = fired++;
        cur_children_.clear();
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
    running_ = false;
    if (now_ < when)
        now_ = when;
    closed_ = now_;
}

} // namespace a4
