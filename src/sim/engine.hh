/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single-threaded event queue keyed by (tick, sequence). Actors
 * (device models, workload cores, the A4 daemon) schedule callables;
 * ties are broken by insertion order so runs are fully deterministic.
 *
 * Hot-path design: events live in a slab of fixed-size slots (inline
 * callback storage, no per-event heap allocation) carved out of
 * stable chunks, and the priority queue orders slim POD entries whose
 * (tick, sequence) ordering is packed into one 128-bit key so heap
 * sifts cost a single compare. Self-rescheduling actors use
 * Engine::Recurring, which installs its callback once and re-arms the
 * same slot, so steady-state actors never re-construct closures.
 * Slots carry a generation counter: cancelling or re-initialising an
 * event invalidates its queued firings without touching the queue.
 * Actors whose event rate would dominate the queue batch themselves
 * through Engine::Batch — one firing per interval that expands into
 * many timestamped sub-events (see the NIC's burst arrival path).
 */

#ifndef A4_SIM_ENGINE_HH
#define A4_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace a4
{

class Serializer;
class Deserializer;

/** Deterministic single-threaded discrete-event engine. */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to fire @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        push(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at absolute tick @p when.
     *
     * Scheduling into the past is an actor bug: it panics in debug
     * builds; release builds clamp to now() and count the occurrence
     * (see pastEvents()) so the slip cannot hide as reordering.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        push(checkWhen(when), std::forward<F>(fn));
    }

    /** Run events until the queue is empty or @p when is reached.
     *  Time is advanced to @p when even if the queue drains early. */
    void runUntil(Tick when);

    /** Run for @p duration ticks from the current time. */
    void runFor(Tick duration) { runUntil(now_ + duration); }

    /** Number of events executed so far (for microbenchmarks). */
    std::uint64_t eventsFired() const { return fired; }

    /** Queued event count (cancelled firings are reaped lazily and
     *  may be briefly included). */
    std::size_t
    pending() const
    {
        return queue.size() + (has_front ? 1 : 0);
    }

    /** Past-dated scheduleAt() occurrences clamped to now(). */
    std::uint64_t pastEvents() const { return past_events; }

    /** @name Batch-expansion accounting (see Engine::Batch). @{ */
    /** Batch firings executed so far (one engine event each). */
    std::uint64_t batchFirings() const { return batch_firings; }
    /** Sub-events expanded inline by batch firings: work that would
     *  have been one engine event each on a per-item schedule. */
    std::uint64_t batchExpanded() const { return batch_expanded; }
    /** Mean expanded sub-events per batch interval. */
    double
    batchExpansionRate() const
    {
        return batch_firings
                   ? double(batch_expanded) / double(batch_firings)
                   : 0.0;
    }
    /** @} */

    /** @name Event-slab introspection (pool regression tests). @{ */
    /** Slots ever allocated (high-water mark of concurrent events). */
    std::size_t slabSlots() const { return slot_count; }
    /** Backing chunks allocated (slot_count / chunk size). */
    std::size_t slabChunks() const { return chunks.size(); }
    /** @} */

    class Recurring;
    class Batch;

    /**
     * @name Snapshot protocol.
     *
     * Callbacks are closures and cannot be serialized, so the engine
     * does not save the queue wholesale. Instead each component
     * re-arms its own Recurring events at their exact saved
     * (tick, seq) keys — exact keys are mandatory because re-arming
     * in a fixed component order could invert the firing order of
     * same-tick events queued in a different order before the save.
     * The engine brackets the component walk with an accounting pass:
     *
     *  - saveBegin() writes the scalar counters and indexes every
     *    *live* queued event by slot (cancelled generations are
     *    dropped — they could never fire anyway). A live event in a
     *    non-recurring slot aborts the snapshot: its closure fires
     *    once and cannot be rebuilt.
     *  - Each Recurring::saveQueued() claims its slot's keys from
     *    the index; saveEnd() fails if any live event was never
     *    claimed, so no component's state can silently fall out of
     *    the snapshot.
     *  - restoreBegin() requires a fresh engine (nothing queued),
     *    restores the scalars — including next_seq, so the key
     *    sequence continues exactly where the saved run left off —
     *    and counts down as Recurring::restoreQueued() re-arms each
     *    saved key; restoreEnd() fails unless every key came back.
     *
     * Any violation throws SnapshotError; callers fall back to a
     * cold run.
     * @{
     */
    void saveBegin(Serializer &s);
    void saveEnd(Serializer &s);
    void restoreBegin(Deserializer &d);
    void restoreEnd(Deserializer &d);
    /** @} */

  private:
    static constexpr std::uint32_t kChunkSlots = 256;

    /** One slab slot: the callback plus pool bookkeeping. */
    struct Slot
    {
        InlineCallback cb;
        Slot *next_free = nullptr;
        std::uint32_t gen = 0;
        bool sticky = false; ///< recurring slot: survives firing
    };

    /** Priority-queue entry: one-compare key + slot reference. */
    struct QueuedEvent
    {
        unsigned __int128 key; ///< (when << 64) | sequence
        Slot *slot;
        std::uint32_t gen;
    };

    struct Later
    {
        bool
        operator()(const QueuedEvent &a, const QueuedEvent &b) const
        {
            return a.key > b.key;
        }
    };

    static Tick whenOf(const QueuedEvent &ev)
    {
        return static_cast<Tick>(ev.key >> 64);
    }

    unsigned __int128
    makeKey(Tick when)
    {
        return (static_cast<unsigned __int128>(when) << 64) |
               next_seq++;
    }

    Slot &
    allocSlot()
    {
        if (free_head == nullptr)
            growSlab();
        Slot &s = *free_head;
        free_head = s.next_free;
        return s;
    }

    void
    freeSlot(Slot &s)
    {
        s.cb.destroy();
        ++s.gen;
        s.sticky = false;
        s.next_free = free_head;
        free_head = &s;
    }

    void growSlab();
    Tick checkWhen(Tick when);

    /** @name Snapshot internals (see the protocol note above). @{ */
    /** Remove and return (sorted) the live keys queued on @p slot. */
    std::vector<unsigned __int128> claimQueuedKeys(const Slot *slot);
    /** Re-enqueue one saved key on @p slot, bypassing makeKey(). */
    void armRestoredKey(unsigned __int128 key, Slot *slot);
    /** @} */

    /**
     * Enqueue keeping the invariant that `front` holds the minimum
     * pending event. Self-rescheduling actors almost always schedule
     * the next-soonest event, so the common case never touches the
     * heap at all (the "front cache" trick from classic DES kernels).
     */
    void
    enqueue(const QueuedEvent &ev)
    {
        if (!has_front) {
            front = ev;
            has_front = true;
        } else if (ev.key < front.key) {
            queue.push(front);
            front = ev;
        } else {
            queue.push(ev);
        }
    }

    template <typename F>
    void
    push(Tick when, F &&fn)
    {
        Slot &s = allocSlot();
        s.cb.emplace(std::forward<F>(fn));
        enqueue(QueuedEvent{makeKey(when), &s, s.gen});
    }

    std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, Later>
        queue;
    QueuedEvent front{};      ///< minimum pending event (cache)
    bool has_front = false;
    // Chunked so slot addresses stay stable while callbacks run
    // (a firing callback may grow the slab by scheduling).
    std::vector<std::unique_ptr<Slot[]>> chunks;
    Slot *free_head = nullptr;
    std::size_t slot_count = 0;

    Tick now_ = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t fired = 0;
    std::uint64_t past_events = 0;
    std::uint64_t batch_firings = 0;
    std::uint64_t batch_expanded = 0;

    // Transient snapshot accounting, live only between
    // saveBegin/saveEnd (resp. restoreBegin/restoreEnd).
    std::unordered_map<const Slot *, std::vector<unsigned __int128>>
        save_index_;
    std::size_t save_unclaimed_ = 0;
    std::uint64_t restore_expected_ = 0;
    bool in_save_ = false;
    bool in_restore_ = false;
};

/**
 * A repeating event: the callback is installed once and re-armed by
 * slot, so steady-state actors (poll loops, batch runners, periodic
 * daemons) never re-create closures on the hot path.
 *
 * The handle owns a pinned slab slot. arm()/armAt() queue the next
 * firing; the callback itself decides whether to re-arm, so stopping
 * an actor is just "don't re-arm" (or cancel() to drop already-queued
 * firings). Arming twice queues two firings. Movable, not copyable;
 * the slot generation guarantees queued firings never outlive the
 * callback, even across cancel()/re-init().
 */
class Engine::Recurring
{
  public:
    Recurring() = default;

    Recurring(Recurring &&o) noexcept : eng_(o.eng_), slot_(o.slot_)
    {
        o.eng_ = nullptr;
        o.slot_ = nullptr;
    }

    Recurring &
    operator=(Recurring &&o) noexcept
    {
        if (this != &o) {
            reset();
            eng_ = std::exchange(o.eng_, nullptr);
            slot_ = std::exchange(o.slot_, nullptr);
        }
        return *this;
    }

    Recurring(const Recurring &) = delete;
    Recurring &operator=(const Recurring &) = delete;

    ~Recurring() { reset(); }

    /** Install @p fn on @p eng (replacing any previous callback). */
    template <typename F>
    void
    init(Engine &eng, F &&fn)
    {
        reset();
        eng_ = &eng;
        slot_ = &eng.allocSlot();
        slot_->cb.emplace(std::forward<F>(fn));
        slot_->sticky = true;
    }

    bool initialized() const { return slot_ != nullptr; }

    /** Queue the next firing @p delay ticks from now. */
    void arm(Tick delay) { armAt(eng_->now_ + delay); }

    /** Queue the next firing at absolute tick @p when. */
    void
    armAt(Tick when)
    {
        eng_->enqueue(QueuedEvent{eng_->makeKey(
                                      eng_->checkWhen(when)),
                                  slot_, slot_->gen});
    }

    /** Invalidate queued firings (the callback stays installed). */
    void
    cancel()
    {
        if (slot_ != nullptr)
            ++slot_->gen;
    }

    /** Drop the callback and release the slot. */
    void
    reset()
    {
        if (slot_ != nullptr) {
            eng_->freeSlot(*slot_);
            eng_ = nullptr;
            slot_ = nullptr;
        }
    }

    /**
     * @name Snapshot hooks.
     * saveQueued() claims this slot's live firings from the engine's
     * save index and writes their exact keys; restoreQueued() re-arms
     * them verbatim on a freshly init()ed slot (the callback itself
     * is re-installed by the owning component's constructor).
     * @{
     */
    void saveQueued(Serializer &s) const;
    void restoreQueued(Deserializer &d);
    /** @} */

  private:
    Engine *eng_ = nullptr;
    Slot *slot_ = nullptr;
};

/**
 * Batch-expansion pump: one repeating engine event per fixed interval
 * whose callback expands into many logical sub-events at once.
 *
 * High-rate actors (the NIC at 100 Gbps generates millions of packet
 * arrivals per simulated second) drown the event queue when every
 * sub-event is its own engine event. A Batch replaces that stream
 * with one firing per interval: the callback receives the covered
 * half-open window (begin, end] and performs every sub-event that
 * falls inside it — with the sub-events' own intra-interval
 * timestamps, so consumers observe the same sequence. The callback
 * returns how many sub-events it expanded; the engine accumulates the
 * firing/expansion counters (batchFirings()/batchExpanded()) so the
 * events-per-interval economy is measurable.
 *
 * Built on Recurring (one pinned slot, no closure churn). Not
 * movable: the installed callback captures `this`.
 */
class Engine::Batch
{
  public:
    Batch() = default;
    Batch(const Batch &) = delete;
    Batch &operator=(const Batch &) = delete;

    /**
     * Install @p fn on @p eng. @p fn is called as
     * `std::uint64_t fn(Tick begin, Tick end)` once per interval and
     * returns the number of sub-events it expanded.
     */
    template <typename F>
    void
    init(Engine &eng, F &&fn)
    {
        stop();
        eng_ = &eng;
        fn_ = std::forward<F>(fn);
        ev_.init(eng, [this] { fire(); });
    }

    /** Begin firing every @p period ticks (first at now + period). */
    void
    start(Tick period)
    {
        if (eng_ == nullptr)
            return;
        if (period == 0)
            period = 1;
        period_ = period;
        last_ = eng_->now();
        active_ = true;
        ev_.arm(period_);
    }

    /** Stop firing and invalidate any queued firing. */
    void
    stop()
    {
        active_ = false;
        if (ev_.initialized())
            ev_.cancel();
    }

    bool active() const { return active_; }
    Tick period() const { return period_; }

    /** @name Snapshot hooks (interval state + the pump's firings). @{ */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);
    /** @} */

  private:
    void
    fire()
    {
        if (!active_)
            return;
        const Tick begin = last_;
        const Tick end = eng_->now();
        last_ = end;
        ++eng_->batch_firings;
        eng_->batch_expanded += fn_(begin, end);
        if (active_)
            ev_.arm(period_);
    }

    Engine *eng_ = nullptr;
    Engine::Recurring ev_;
    std::function<std::uint64_t(Tick, Tick)> fn_;
    Tick period_ = 0;
    Tick last_ = 0;
    bool active_ = false;
};

} // namespace a4

#endif // A4_SIM_ENGINE_HH
