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
 * stable chunks, and the queue orders slim POD entries whose
 * (tick, sequence) ordering is packed into one 128-bit key so every
 * comparison is a single compare. The minimum pending event sits in
 * a front cache. Every other event waits either in a binary heap or
 * in one of kDelayFifos delay FIFOs: a relative schedule with delay
 * d appends the key (now + d, seq), and since now never decreases
 * and seq always grows, a FIFO that only ever takes one delay is
 * key-sorted by construction. A FIFO keeps its delay while it holds
 * events and is re-keyed only when empty; when no FIFO fits, the
 * event goes to the heap, as do absolute schedules (scheduleAt,
 * armAt) and displaced fronts. Refilling the front takes the least
 * of the heap top and the FIFO heads, so the pop order is the one
 * total (tick, seq) order: the FIFOs only make fixed-period actors
 * (poll loops, batch pumps) O(1) instead of a heap sift. Self-rescheduling actors use Engine::Recurring, which
 * installs its callback once and re-arms the same slot, so
 * steady-state actors never re-construct closures.
 * Slots carry a generation counter: cancelling or re-initialising an
 * event invalidates its queued firings without touching the queue.
 * Actors whose event rate would dominate the queue batch themselves
 * through Engine::Batch — one firing per interval that expands into
 * many timestamped sub-events (see the NIC's burst arrival path).
 *
 * Sleeping: a poll loop that finds nothing to do re-arms every p
 * ticks, and each of those firings is a no-op until its input
 * arrives. Recurring::sleep(p, until) skips them: the actor fires
 * next at the first tick of its grid (now + k·p) at or after
 * `until`, in exactly the slot its chain of no-op re-arms would have
 * reached. Skipping changes sequence numbers, not order, so the
 * engine keeps a little provenance per queued firing (its delay,
 * whether a firing scheduled it, and its p-chain) and merges the
 * sleepers in at their wake tick W by the tie rule: an event
 * scheduled before tick W−p's firings fires first, one scheduled
 * after them fires second, and one scheduled by a W−p firing exactly
 * p ahead is ordered by comparing p-chains (chainBefore()). See
 * docs/ARCHITECTURE.md for the argument.
 */

#ifndef A4_SIM_ENGINE_HH
#define A4_SIM_ENGINE_HH

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace a4
{

/** Deterministic single-threaded discrete-event engine. */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** A tick no event reaches (Recurring::sleep() until it sleeps
     *  until woken by Recurring::wakeBy()). */
    static constexpr Tick kNever = ~Tick(0);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to fire @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        enqueueAfter(makeEvent(now_ + delay, std::forward<F>(fn)),
                     delay);
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
        enqueue(makeEvent(checkWhen(when), std::forward<F>(fn)));
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
        std::size_t n =
            queue.size() + (has_front ? 1 : 0) + sleepers_.size();
        for (const DelayFifo &f : fifos_)
            n += f.size;
        return n;
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

  private:
    static constexpr std::uint32_t kChunkSlots = 256;
    /** Delay FIFOs beside the heap (see the file comment). */
    static constexpr unsigned kDelayFifos = 8;

    /** One slab slot: the callback plus pool bookkeeping. */
    struct Slot
    {
        InlineCallback cb;
        Slot *next_free = nullptr;
        std::uint32_t gen = 0;
        bool sticky = false; ///< recurring slot: survives firing
    };

    /** How a firing was scheduled relative to the firings of the
     *  tick it was scheduled at. */
    enum Origin : std::uint32_t
    {
        kBefore, ///< before any of them (set-up, before the first run)
        kFiring, ///< by one of them
        kAfter,  ///< after them: between runUntil() windows, or by a
                 ///< firing that runs after its tick's window closed
    };

    /** A fork in a p-chain: the @c index-th (>= 1) firing p ahead
     *  that the firing at @c tick scheduled; @c up is the previous
     *  fork on the same path. */
    struct Fork
    {
        Tick tick;
        std::uint32_t index;
        const Fork *up;
    };

    /**
     * A p-chain: a run of firings, each scheduled by the previous
     * one's firing exactly p ticks ahead, back to a first firing that
     * was not. A firing that schedules several firings p ahead forks
     * the chain; each branch after the first records the fork. Chains
     * that both reach a tick keep the order they had where they
     * parted (chainBefore()).
     */
    struct Chain
    {
        Tick start = 0;                ///< tick of the first firing
        std::uint64_t ord : 63 = 0;    ///< its firing ordinal
        std::uint64_t early : 1 = 0;   ///< scheduled before tick
                                       ///< start − p's firings
        const Fork *fork = nullptr;    ///< last fork on this branch
    };

    /** Delays are kept saturated to 30 bits; sleep periods stay
     *  below the cap, so a capped delay only ever compares larger. */
    static constexpr Tick kDelayCap = (Tick(1) << 30) - 1;

    /** Priority-queue entry: one-compare key + slot reference, plus
     *  the provenance the sleep tie rule reads. */
    struct QueuedEvent
    {
        unsigned __int128 key; ///< (when << 64) | sequence
        Slot *slot;
        std::uint32_t gen;
        std::uint32_t delay : 30; ///< when − scheduling tick (capped)
        std::uint32_t origin : 2;
        Chain chain; ///< its p-chain, p = delay (kFiring only)
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

    static std::uint32_t
    capDelay(Tick d)
    {
        return static_cast<std::uint32_t>(d < kDelayCap ? d : kDelayCap);
    }

    /** The p-chain, p = @p d, of a firing the current one schedules
     *  @p d ticks ahead: the current firing's own chain if it was
     *  scheduled by a firing d ticks back, else a chain starting at
     *  the current firing. */
    Chain
    chainFor(Tick d)
    {
        const std::uint32_t cd = capDelay(d);
        Chain c;
        if (cur_->origin == kFiring && cur_->delay == cd) {
            c = cur_->chain;
        } else {
            c.start = now_;
            c.ord = cur_ord_;
            c.early = cur_->delay > cd ||
                      (cur_->delay == cd && cur_->origin == kBefore);
        }
        if (const std::uint32_t k = childIndex(cd)) {
            forks_.push_back(Fork{now_, k, c.fork});
            c.fork = &forks_.back();
        }
        return c;
    }

    /** How many firings @p cd ahead the current firing scheduled
     *  before this one (counting it). */
    std::uint32_t
    childIndex(std::uint32_t cd)
    {
        for (auto &[delay, n] : cur_children_) {
            if (delay == cd)
                return n++;
        }
        cur_children_.emplace_back(cd, 1);
        return 0;
    }

    /** Queue entry for a firing of @p s at @p when (>= now()). */
    QueuedEvent
    queued(Tick when, Slot &s)
    {
        QueuedEvent ev{makeKey(when), &s, s.gen, capDelay(when - now_),
                       kFiring, Chain{}};
        if (now_ == closed_)
            ev.origin = kAfter;
        else if (!running_)
            ev.origin = kBefore;
        else
            ev.chain = chainFor(when - now_);
        return ev;
    }

    /**
     * Whether chain @p a fires before chain @p b at a tick both reach
     * (same period). Chains that start at the same tick keep their
     * firing order there; otherwise the later-starting one fires
     * first exactly when it was scheduled before the firings of the
     * tick one period before its start. So early chains come first,
     * latest start first, and the rest follow in firing order.
     */
    static bool
    chainBefore(const Chain &a, const Chain &b)
    {
        if (a.ord == b.ord) // one first firing: branches of a fork
            return forkBefore(a.fork, b.fork);
        if (a.early != b.early)
            return a.early;
        if (a.early && a.start != b.start)
            return a.start > b.start;
        return a.ord < b.ord;
    }

    /** Branch order of one chain: at the first fork where the paths
     *  part, the branch scheduled first (index 0: no fork recorded)
     *  fires first. */
    static bool forkBefore(const Fork *a, const Fork *b);

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

    /**
     * Keep the invariant that `front` holds the minimum pending event:
     * if @p ev is the new minimum it becomes the front (a displaced
     * front goes to the heap) and this returns true. Self-rescheduling
     * actors often schedule the next-soonest event, so that case
     * touches no queue at all (the "front cache" trick from classic
     * DES kernels).
     */
    bool
    takeFront(const QueuedEvent &ev)
    {
        if (!has_front) {
            front = ev;
            has_front = true;
            return true;
        }
        if (ev.key < front.key) {
            queue.push(front);
            front = ev;
            return true;
        }
        return false;
    }

    /** Enqueue an absolute schedule: the front, else the heap. */
    void
    enqueue(const QueuedEvent &ev)
    {
        if (!takeFront(ev))
            queue.push(ev);
    }

    /**
     * Enqueue an event scheduled @p delay ticks from now: the front,
     * else the FIFO of that delay (re-keying an empty FIFO if none
     * holds it), else the heap.
     */
    void
    enqueueAfter(const QueuedEvent &ev, Tick delay)
    {
        if (takeFront(ev))
            return;
        unsigned empty = kDelayFifos;
        for (unsigned i = 0; i < kDelayFifos; ++i) {
            if (fifo_delay_[i] == delay) {
                fifoPush(i, ev);
                return;
            }
            if (empty == kDelayFifos && fifo_head_[i] == kNoKey)
                empty = i;
        }
        if (empty == kDelayFifos) {
            queue.push(ev);
            return;
        }
        fifo_delay_[empty] = delay;
        fifoPush(empty, ev);
    }

    /** Append @p ev to FIFO @p i (its key exceeds the tail's). */
    void
    fifoPush(unsigned i, const QueuedEvent &ev)
    {
        DelayFifo &f = fifos_[i];
        if (f.size == f.capacity) [[unlikely]]
            growFifo(f);
        assert(f.size == 0 ||
               f.ring[(f.head + f.size - 1) & (f.capacity - 1)].key <
                   ev.key);
        f.ring[(f.head + f.size) & (f.capacity - 1)] = ev;
        if (f.size++ == 0) {
            fifo_head_[i] = ev.key;
            if (ev.key < fifo_least_) {
                fifo_least_ = ev.key;
                fifo_least_i_ = i;
            }
        }
    }

    /** Pop the head of non-empty FIFO @p i. */
    QueuedEvent
    fifoPop(unsigned i)
    {
        DelayFifo &f = fifos_[i];
        const QueuedEvent ev = f.ring[f.head];
        f.head = (f.head + 1) & (f.capacity - 1);
        fifo_head_[i] =
            --f.size == 0 ? kNoKey : f.ring[f.head].key;
        return ev;
    }

    /** Refill the front cache from the least of the heap top and the
     *  FIFO heads (or clear it when nothing is pending). */
    void refillFront();

    template <typename F>
    QueuedEvent
    makeEvent(Tick when, F &&fn)
    {
        Slot &s = allocSlot();
        s.cb.emplace(std::forward<F>(fn));
        return queued(when, s);
    }

    /** A Recurring skipping its no-op re-arms until @c wake. */
    struct Sleeper
    {
        Tick wake;
        Tick period;
        Chain chain; ///< of the skipped re-arms (p = period)
        Slot *slot;
        std::uint32_t gen;
    };

    /** Whether sleeper @p a fires before sleeper @p b: earlier wake,
     *  then the longer period (its re-arm was scheduled a tick
     *  earlier), then chain order. */
    static bool
    sleeperBefore(const Sleeper &a, const Sleeper &b)
    {
        if (a.wake != b.wake)
            return a.wake < b.wake;
        if (a.period != b.period)
            return a.period > b.period;
        return chainBefore(a.chain, b.chain);
    }
    /** Heap order for sleepers_ (the first to fire on top). */
    static bool
    sleeperAfter(const Sleeper &a, const Sleeper &b)
    {
        return sleeperBefore(b, a);
    }

    /** Whether sleeper @p s fires before queued event @p e. */
    static bool
    wakesBefore(const Sleeper &s, const QueuedEvent &e)
    {
        if (s.wake != whenOf(e))
            return s.wake < whenOf(e);
        // Same tick W: the skipped re-arm was scheduled during tick
        // W − p's firings.
        const std::uint32_t p = capDelay(s.period);
        if (e.delay != p)
            return e.delay < p; // e scheduled after (before) W − p
        if (e.origin != kFiring)
            return e.origin == kAfter;
        return chainBefore(s.chain, e.chain);
    }

    void addSleeper(const Sleeper &s);
    /** Pop the first sleeper and, unless cancelled, fire it. */
    void wake();

    static constexpr unsigned __int128 kNoKey = ~(unsigned __int128)0;

    /** A ring buffer of key-sorted events sharing one delay. */
    struct DelayFifo
    {
        std::unique_ptr<QueuedEvent[]> ring;
        std::uint32_t capacity = 0; ///< zero or a power of two
        std::uint32_t head = 0;
        std::uint32_t size = 0;
    };
    static void growFifo(DelayFifo &f);

    std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, Later>
        queue;
    QueuedEvent front{};      ///< minimum pending event (cache)
    bool has_front = false;
    DelayFifo fifos_[kDelayFifos];
    /** Head key of each FIFO (kNoKey when empty). */
    unsigned __int128 fifo_head_[kDelayFifos] = {
        kNoKey, kNoKey, kNoKey, kNoKey, kNoKey, kNoKey, kNoKey, kNoKey};
    /** The least FIFO head (kNoKey when all are empty) and its FIFO,
     *  so a refill from the heap costs one compare; rescanned after
     *  each FIFO pop. */
    unsigned __int128 fifo_least_ = kNoKey;
    unsigned fifo_least_i_ = 0;
    /** Delay each FIFO is keyed to (any value while never used). */
    Tick fifo_delay_[kDelayFifos] = {};
    // Chunked so slot addresses stay stable while callbacks run
    // (a firing callback may grow the slab by scheduling).
    std::vector<std::unique_ptr<Slot[]>> chunks;
    Slot *free_head = nullptr;
    std::size_t slot_count = 0;

    /** Sleepers: a binary heap, the first to fire on top. */
    std::vector<Sleeper> sleepers_;
    Tick wake_next_ = kNever; ///< the top sleeper's wake (or kNever)

    /** Fork records; a deque keeps their addresses stable. They are
     *  kept for the engine's lifetime (one per extra firing p ahead
     *  from one firing, which the simulator's actors never do). */
    std::deque<Fork> forks_;
    /** (capped delay, count) of the current firing's schedules. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cur_children_;

    Tick now_ = 0;
    /** The tick the last runUntil() window ended at (kNever before
     *  the first): its firings are over, later schedules come after
     *  them. */
    Tick closed_ = kNever;
    bool running_ = false; ///< inside runUntil(): a firing schedules
    /** The firing being run and its ordinal (valid while running_). */
    const QueuedEvent *cur_ = nullptr;
    std::uint64_t cur_ord_ = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t fired = 0;
    std::uint64_t past_events = 0;
    std::uint64_t batch_firings = 0;
    std::uint64_t batch_expanded = 0;
};

/**
 * A repeating event: the callback is installed once and re-armed by
 * slot, so steady-state actors (poll loops, batch runners, periodic
 * daemons) never re-create closures on the hot path.
 *
 * The handle owns a pinned slab slot. arm()/armAt()/sleep() queue
 * the next firing; the callback itself decides whether to re-arm, so
 * stopping an actor is just "don't re-arm" (or cancel() to drop
 * already-queued firings, sleeps included). Arming twice queues two
 * firings. Movable, not copyable; the slot generation guarantees
 * queued firings never outlive the callback, even across
 * cancel()/re-init().
 */
class Engine::Recurring
{
  public:
    Recurring() = default;

    Recurring(Recurring &&o) noexcept
        : eng_(std::exchange(o.eng_, nullptr)),
          slot_(std::exchange(o.slot_, nullptr)), sleep_(o.sleep_),
          grid_(o.grid_)
    {}

    Recurring &
    operator=(Recurring &&o) noexcept
    {
        if (this != &o) {
            reset();
            eng_ = std::exchange(o.eng_, nullptr);
            slot_ = std::exchange(o.slot_, nullptr);
            sleep_ = o.sleep_;
            grid_ = o.grid_;
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
    void
    arm(Tick delay)
    {
        eng_->enqueueAfter(eng_->queued(eng_->now_ + delay, *slot_),
                           delay);
    }

    /** Queue the next firing at absolute tick @p when. */
    void
    armAt(Tick when)
    {
        eng_->enqueue(eng_->queued(eng_->checkWhen(when), *slot_));
    }

    /**
     * Queue the next firing at the first tick of the grid now + k·
     * @p period (k >= 1) at or after @p until (kNever: until woken by
     * wakeBy()), in exactly the slot that arm(@p period) followed by
     * no-op firings that each re-arm(@p period) would have reached.
     * The caller guarantees those skipped firings would do nothing
     * but re-arm. Falls back to arm(@p period) when the grid's next
     * tick is already at or past @p until, and outside a firing that
     * runs in its tick's first runUntil() window (where a skipped
     * re-arm would have no place in the order).
     */
    void
    sleep(Tick period, Tick until)
    {
        Engine &e = *eng_;
        if (period == 0 || period >= kDelayCap || until <= e.now_ ||
            until - e.now_ <= period || !e.running_ ||
            e.now_ == e.closed_) {
            arm(period);
            return;
        }
        grid_ = e.now_;
        sleep_ = Sleeper{kNever, period, e.chainFor(period), slot_,
                         slot_->gen};
        wakeAt(until);
    }

    /**
     * Bring a pending sleep() forward so that it fires no later than
     * the first tick of its grid at or after @p until (clamped to
     * after now()). No-op unless sleeping past that tick.
     */
    void
    wakeBy(Tick until)
    {
        if (!sleeping())
            return;
        const Tick after = until > eng_->now_ ? until : eng_->now_ + 1;
        if (after >= sleep_.wake)
            return;
        cancel(); // drop the queued wake
        sleep_.gen = slot_->gen;
        wakeAt(after);
    }

    /** Whether a sleep() is pending. */
    bool
    sleeping() const
    {
        return slot_ != nullptr && sleep_.slot == slot_ &&
               sleep_.gen == slot_->gen && sleep_.wake > eng_->now_;
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

  private:
    /** Set the wake to the first tick of the grid from grid_ at or
     *  after @p until (> grid_) and queue it; a wake past every tick
     *  stays unqueued until wakeBy(). */
    void
    wakeAt(Tick until)
    {
        const Tick p = sleep_.period;
        const Tick k = (until - grid_ - 1) / p + 1;
        sleep_.wake = k > (kNever - grid_) / p ? kNever : grid_ + k * p;
        if (sleep_.wake != kNever)
            eng_->addSleeper(sleep_);
    }

    Engine *eng_ = nullptr;
    Slot *slot_ = nullptr;
    Sleeper sleep_{}; ///< the pending (or last) sleep
    Tick grid_ = 0;   ///< the tick sleep() was called at
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
