/**
 * @file
 * Tests for the engine's slab-allocated event pool and the Recurring
 * repeating-event primitive, plus a tick-for-tick equivalence check
 * against a reference model of the pre-pool queue semantics
 * (std::function events in a (tick, sequence)-ordered priority
 * queue). The equivalence test is the oracle that the hot-path rework
 * changed no simulation results.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "sim/engine.hh"
#include "sim/rng.hh"

using namespace a4;

// --- event-slab pool ------------------------------------------------------

TEST(EnginePool, SequentialEventsReuseOneSlot)
{
    // A self-rescheduling chain of one-shot events must recycle slab
    // slots instead of growing the pool: the high-water mark stays at
    // a single chunk no matter how many events fire.
    Engine eng;
    int count = 0;
    std::function<void()> self = [&] {
        if (++count < 10000)
            eng.schedule(3, self);
    };
    eng.schedule(1, self);
    eng.runUntil(50000);
    EXPECT_EQ(count, 10000);
    EXPECT_EQ(eng.slabChunks(), 1u);
}

TEST(EnginePool, SlabGrowsWithConcurrencyNotWithTraffic)
{
    // 1000 concurrent events need multiple chunks; another 1000
    // scheduled after the first batch fired reuse the same slots.
    Engine eng;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
        eng.schedule(10, [&] { ++fired; });
    eng.runUntil(10);
    const std::size_t high_water = eng.slabSlots();
    EXPECT_GE(high_water, 1000u);

    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 1000; ++i)
            eng.schedule(10, [&] { ++fired; });
        eng.runFor(10);
    }
    EXPECT_EQ(fired, 11000);
    EXPECT_EQ(eng.slabSlots(), high_water);
}

TEST(EnginePool, CallbackDestructorsRunWhenEventsFire)
{
    // Non-trivial captures (here shared_ptr) are destroyed after the
    // event fires, not leaked in the slab.
    Engine eng;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    eng.schedule(5, [t = std::move(token)] { EXPECT_EQ(*t, 42); });
    EXPECT_FALSE(watch.expired());
    eng.runUntil(5);
    EXPECT_TRUE(watch.expired());
}

// --- Recurring ------------------------------------------------------------

TEST(EngineRecurring, FiresAndReArmsWithoutGrowingThePool)
{
    Engine eng;
    Engine::Recurring ev;
    int count = 0;
    ev.init(eng, [&] {
        ++count;
        if (count < 1000)
            ev.arm(7);
    });
    ev.arm(1);
    eng.runUntil(7 * 1000 + 1);
    EXPECT_EQ(count, 1000);
    EXPECT_EQ(eng.slabChunks(), 1u);
}

TEST(EngineRecurring, CancelDropsQueuedFirings)
{
    Engine eng;
    Engine::Recurring ev;
    int count = 0;
    ev.init(eng, [&] { ++count; });
    ev.arm(10);
    ev.arm(20);
    eng.runUntil(10);
    EXPECT_EQ(count, 1);
    ev.cancel();
    eng.runUntil(100);
    EXPECT_EQ(count, 1); // the tick-20 firing was invalidated

    ev.arm(50); // re-arming after cancel works
    eng.runUntil(200);
    EXPECT_EQ(count, 2);
}

TEST(EngineRecurring, DestructionInvalidatesQueuedFirings)
{
    Engine eng;
    int count = 0;
    {
        Engine::Recurring ev;
        ev.init(eng, [&] { ++count; });
        ev.arm(10);
    } // destroyed with a firing queued
    eng.runUntil(100);
    EXPECT_EQ(count, 0);
}

TEST(EngineRecurring, SlotReleasedOnResetIsReused)
{
    Engine eng;
    int a = 0, b = 0;
    Engine::Recurring ev;
    ev.init(eng, [&] { ++a; });
    ev.arm(1);
    eng.runUntil(1);
    const std::size_t slots = eng.slabSlots();
    ev.reset();
    Engine::Recurring ev2;
    ev2.init(eng, [&] { ++b; });
    ev2.arm(1);
    eng.runUntil(2);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(eng.slabSlots(), slots);
}

TEST(EngineRecurring, ResetFromOwnCallbackIsSafe)
{
    // An actor stopping itself (reset() inside its own firing) must
    // not corrupt the slot free list: the freed slot has to be handed
    // out exactly once afterwards.
    Engine eng;
    Engine::Recurring ev;
    int count = 0;
    ev.init(eng, [&] {
        ++count;
        ev.reset();
    });
    ev.arm(1);
    eng.runUntil(10);
    EXPECT_EQ(count, 1);
    EXPECT_FALSE(ev.initialized());

    int a = 0, b = 0;
    eng.schedule(1, [&] { ++a; });
    eng.schedule(1, [&] { ++b; });
    eng.runFor(5);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
}

TEST(EngineRecurring, MoveTransfersTheArmedSlot)
{
    Engine eng;
    int count = 0;
    Engine::Recurring ev;
    ev.init(eng, [&] { ++count; });
    ev.arm(10);
    Engine::Recurring moved = std::move(ev);
    EXPECT_FALSE(ev.initialized());
    EXPECT_TRUE(moved.initialized());
    eng.runUntil(10);
    EXPECT_EQ(count, 1);
    moved.arm(10);
    eng.runUntil(20);
    EXPECT_EQ(count, 2);
}

// --- equivalence with the pre-pool queue semantics ------------------------

namespace
{

/**
 * Reference implementation of the engine's documented contract, kept
 * deliberately naive (the pre-rework design): one heap-allocated
 * std::function per event in a std::priority_queue ordered by
 * (tick, insertion sequence).
 */
class ReferenceEngine
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void schedule(Tick delay, Callback fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    void
    scheduleAt(Tick when, Callback fn)
    {
        if (when < now_)
            when = now_;
        queue.push(Event{when, next_seq++, std::move(fn)});
    }

    void
    runUntil(Tick when)
    {
        while (!queue.empty() && queue.top().when <= when) {
            Event ev = queue.top();
            queue.pop();
            now_ = ev.when;
            ev.fn();
        }
        if (now_ < when)
            now_ = when;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback fn;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> queue;
    Tick now_ = 0;
    std::uint64_t next_seq = 0;
};

/**
 * Drive a stochastic actor mix through any engine-shaped type and
 * fingerprint the execution: every firing appends (actor, tick) to
 * the trace. Actors self-reschedule with deterministic pseudo-random
 * delays (including zero-delay and tied-tick events, the ordering
 * edge cases) and occasionally spawn one-shot events.
 */
template <typename EngineT>
std::vector<std::pair<int, Tick>>
traceActorMix(EngineT &eng, unsigned actors, Tick horizon)
{
    struct State
    {
        std::vector<std::pair<int, Tick>> trace;
        std::vector<Rng> rngs;
    };
    auto st = std::make_shared<State>();
    for (unsigned a = 0; a < actors; ++a)
        st->rngs.emplace_back(0xABCD + a);

    std::function<void(int)> fire = [&eng, st, &fire](int a) {
        st->trace.emplace_back(a, eng.now());
        Rng &rng = st->rngs[a];
        const Tick delay = rng.below(5); // 0..4: exercises ties
        if (rng.chance(0.25)) {
            const int burst = 1 + int(rng.below(3));
            for (int i = 0; i < burst; ++i) {
                eng.schedule(delay + i, [st, a, &eng] {
                    st->trace.emplace_back(1000 + a, eng.now());
                });
            }
        }
        eng.schedule(delay, [a, &fire] { fire(a); });
    };

    for (unsigned a = 0; a < actors; ++a)
        eng.schedule(a % 3, [a, &fire] { fire(int(a)); });
    eng.runUntil(horizon);
    return st->trace;
}

} // namespace

TEST(EngineEquivalence, TraceMatchesReferenceQueueTickForTick)
{
    Engine fast;
    ReferenceEngine ref;
    auto a = traceActorMix(fast, 8, 2000);
    auto b = traceActorMix(ref, 8, 2000);
    ASSERT_GT(a.size(), 1000u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].first, b[i].first) << "at event " << i;
        ASSERT_EQ(a[i].second, b[i].second) << "at event " << i;
    }
}

TEST(EngineEquivalence, RecurringMatchesOneShotSelfScheduling)
{
    // The Recurring primitive must interleave exactly like the
    // equivalent closure-per-batch pattern it replaces.
    auto viaOneShot = [] {
        Engine eng;
        std::vector<std::pair<int, Tick>> trace;
        std::function<void(int)> run = [&](int id) {
            trace.emplace_back(id, eng.now());
            eng.schedule(1 + Tick(id), [&run, id] { run(id); });
        };
        for (int id = 0; id < 4; ++id)
            eng.schedule(Tick(id) + 1, [&run, id] { run(id); });
        eng.runUntil(500);
        return trace;
    };
    auto viaRecurring = [] {
        Engine eng;
        std::vector<std::pair<int, Tick>> trace;
        std::vector<Engine::Recurring> evs(4);
        for (int id = 0; id < 4; ++id) {
            evs[id].init(eng, [&, id] {
                trace.emplace_back(id, eng.now());
                evs[id].arm(1 + Tick(id));
            });
        }
        for (int id = 0; id < 4; ++id)
            evs[id].arm(Tick(id) + 1);
        eng.runUntil(500);
        return trace;
    };
    EXPECT_EQ(viaOneShot(), viaRecurring());
}

// --- delay FIFOs beside the heap --------------------------------------------

namespace
{

/** Distinct delays the mix below draws from: more than the engine's
 *  eight delay FIFOs, with a zero delay and long ones that keep
 *  their FIFOs (or the heap) occupied for many firings. */
constexpr Tick kMixDelays[] = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144};

/** Actors on the real engine: one Recurring each; cancel and reset
 *  act on the engine's slot generations. */
class EngineActors
{
  public:
    template <typename F>
    EngineActors(unsigned n, F on_fire) : on_fire_(on_fire), evs_(n)
    {
        for (unsigned a = 0; a < n; ++a)
            install(a);
    }

    Tick now() const { return eng_.now(); }
    void after(unsigned a, Tick d) { evs_[a].arm(d); }
    void at(unsigned a, Tick when) { evs_[a].armAt(when); }
    void
    sleep(unsigned a, Tick period, Tick until)
    {
        if (until > now() + period)
            ++sleeps_;
        evs_[a].sleep(period, until);
    }
    void wakeBy(unsigned a, Tick until) { evs_[a].wakeBy(until); }
    std::uint64_t sleeps() const { return sleeps_; }
    void cancel(unsigned a) { evs_[a].cancel(); }
    void
    reset(unsigned a)
    {
        evs_[a].reset();
        install(a);
    }
    template <typename F>
    void oneShot(Tick d, F fn) { eng_.schedule(d, fn); }
    template <typename F>
    void oneShotAt(Tick when, F fn) { eng_.scheduleAt(when, fn); }
    void runUntil(Tick t) { eng_.runUntil(t); }

  private:
    void
    install(unsigned a)
    {
        evs_[a].init(eng_, [this, a] { on_fire_(a); });
    }

    Engine eng_;
    std::function<void(unsigned)> on_fire_;
    std::vector<Engine::Recurring> evs_;
    std::uint64_t sleeps_ = 0;
};

/** The same actors on ReferenceEngine: an epoch per actor stands in
 *  for the slot generation, so cancel and reset drop every firing
 *  queued before them. */
class ReferenceActors
{
  public:
    template <typename F>
    ReferenceActors(unsigned n, F on_fire) : on_fire_(on_fire), epoch_(n)
    {}

    Tick now() const { return ref_.now(); }
    void after(unsigned a, Tick d) { at(a, ref_.now() + d); }
    void
    at(unsigned a, Tick when)
    {
        ref_.scheduleAt(when, [this, a, e = epoch_[a]] {
            if (epoch_[a] == e)
                on_fire_(a);
        });
    }
    /** No sleeping here: an idle actor re-arms every period. */
    void sleep(unsigned a, Tick period, Tick) { after(a, period); }
    void wakeBy(unsigned, Tick) {}
    void cancel(unsigned a) { ++epoch_[a]; }
    void reset(unsigned a) { ++epoch_[a]; }
    template <typename F>
    void oneShot(Tick d, F fn) { ref_.schedule(d, fn); }
    template <typename F>
    void oneShotAt(Tick when, F fn) { ref_.scheduleAt(when, fn); }
    void runUntil(Tick t) { ref_.runUntil(t); }

  private:
    ReferenceEngine ref_;
    std::function<void(unsigned)> on_fire_;
    std::vector<std::uint64_t> epoch_;
};

/**
 * Drive recurring actors through either engine with relative re-arms
 * over kMixDelays (so more delays are live than there are FIFOs, and
 * emptied FIFOs get re-keyed), absolute re-arms and one-shots landing
 * on the same ticks as relative ones, and cancel/reset of other
 * actors; every firing appends (actor, tick).
 */
template <typename Actors>
std::vector<std::pair<int, Tick>>
traceDelayMix(unsigned actors, Tick horizon)
{
    std::vector<std::pair<int, Tick>> trace;
    Rng rng(0xF1F0);
    std::unique_ptr<Actors> act;
    auto pickDelay = [&] {
        return kMixDelays[rng.below(std::size(kMixDelays))];
    };
    auto on_fire = [&](unsigned a) {
        trace.emplace_back(int(a), act->now());
        const std::uint64_t roll = rng.below(100);
        const unsigned other = unsigned(rng.below(actors));
        if (roll < 10) {
            // Absolute re-arm onto a tick a relative schedule may
            // also hit: the heap and a FIFO tie on tick, seq decides.
            act->at(a, act->now() + pickDelay());
        } else if (roll < 20 && other != a) {
            act->cancel(other);
            act->after(other, pickDelay());
            act->after(a, pickDelay());
        } else if (roll < 25 && other != a) {
            act->reset(other);
            act->after(other, pickDelay());
            act->after(a, pickDelay());
        } else if (roll < 35) {
            const Tick d = pickDelay();
            act->oneShot(d, [&trace, &act, a] {
                trace.emplace_back(1000 + int(a), act->now());
            });
            act->oneShotAt(act->now() + d, [&trace, &act, a] {
                trace.emplace_back(2000 + int(a), act->now());
            });
            act->after(a, d);
        } else {
            act->after(a, pickDelay());
        }
    };
    act = std::make_unique<Actors>(actors, on_fire);
    for (unsigned a = 0; a < actors; ++a)
        act->after(a, kMixDelays[a % std::size(kMixDelays)]);
    act->runUntil(horizon);
    return trace;
}

} // namespace

TEST(EngineEquivalence, DelayFifosKeepReferenceOrder)
{
    // Sixteen actors over twelve delays keep more delays live than
    // the engine has FIFOs, so events fall back to the heap and
    // emptied FIFOs are re-keyed; zero delays, same-tick absolute
    // schedules, cancels and resets exercise every tie path.
    const auto a = traceDelayMix<EngineActors>(16, 20000);
    const auto b = traceDelayMix<ReferenceActors>(16, 20000);
    ASSERT_GT(a.size(), 5000u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].first, b[i].first) << "at event " << i;
        ASSERT_EQ(a[i].second, b[i].second) << "at event " << i;
    }
}

// --- sleeping pollers --------------------------------------------------------

namespace
{

/** Poll periods: pollers that share a period and grid wake at the
 *  same tick; periods 5 and 10 also meet with different periods. */
constexpr Tick kPollPeriods[] = {5, 5, 5, 5, 5, 10, 10, 7, 7, 5};
constexpr unsigned kPollers = std::size(kPollPeriods);
/** Plain actors after the pollers, re-arming mostly every 5 ticks:
 *  the non-poll p-chains a waking sleeper must be ordered against. */
constexpr unsigned kPlain = 4;

/**
 * Pollers over per-poller arrival sets plus plain actors. A poll that
 * finds no arrival at or before now() is idle: on Engine it sleeps
 * until the next arrival, on ReferenceEngine it re-arms every period
 * (ReferenceActors::sleep), and either way it records nothing and
 * draws nothing, so the traces of the other firings must match tick
 * for tick. Those firings re-arm with delays that often equal the
 * period, spawn one-shots a period ahead, inject arrivals into other
 * pollers (waking them early), wake pollers for nothing, and cancel
 * and re-arm other actors. Between runUntil() windows the loop
 * schedules one-shots (delay 0, so some fire after their tick's
 * window closed), injects arrivals and re-arms actors.
 */
template <typename Actors>
std::vector<std::pair<int, Tick>>
traceSleepMix(std::uint64_t seed, std::uint64_t *sleeps = nullptr)
{
    std::vector<std::pair<int, Tick>> trace;
    std::vector<std::multiset<Tick>> arrivals(kPollers);
    Rng rng(seed);
    std::unique_ptr<Actors> act;
    auto periodOf = [](unsigned a) {
        return a < kPollers ? kPollPeriods[a] : Tick(5);
    };
    auto pickDelay = [&](unsigned a) {
        const Tick p = periodOf(a);
        const Tick delays[] = {p, p, p, 0, 1, 2, p - 1, p + 1, 2 * p};
        return delays[rng.below(std::size(delays))];
    };
    auto inject = [&](unsigned b, Tick when) {
        arrivals[b].insert(when);
        act->wakeBy(b, when);
    };
    auto on_fire = [&](unsigned a) {
        const Tick now = act->now();
        if (a < kPollers) {
            auto &arr = arrivals[a];
            const auto ready = arr.upper_bound(now);
            if (ready == arr.begin()) {
                act->sleep(a, periodOf(a),
                           arr.empty() ? Engine::kNever : *arr.begin());
                return;
            }
            arr.erase(arr.begin(), ready);
        }
        trace.emplace_back(int(a), now);
        const std::uint64_t roll = rng.below(100);
        const unsigned other = unsigned(rng.below(kPollers + kPlain));
        if (roll < 15) {
            const Tick p = periodOf(a);
            act->oneShot(p, [&trace, &act, a] {
                trace.emplace_back(1000 + int(a), act->now());
            });
            act->oneShotAt(now + p, [&trace, &act, a] {
                trace.emplace_back(2000 + int(a), act->now());
            });
        } else if (roll < 35) {
            inject(unsigned(rng.below(kPollers)),
                   now + 1 + rng.below(8 * periodOf(a)));
        } else if (roll < 40) {
            act->wakeBy(unsigned(rng.below(kPollers)),
                        now + 1 + rng.below(4 * periodOf(a)));
        } else if (roll < 45 && other != a) {
            act->cancel(other);
            act->after(other, pickDelay(other));
        }
        act->after(a, pickDelay(a));
    };
    act = std::make_unique<Actors>(kPollers + kPlain, on_fire);
    // Set-up: arrivals, first polls and plain actors, and one-shots a
    // period ahead, all before the first window.
    for (unsigned b = 0; b < kPollers; ++b) {
        for (int i = 0; i < 20; ++i)
            arrivals[b].insert(1 + rng.below(20000));
        act->after(b, 1 + b % 3);
    }
    for (unsigned a = kPollers; a < kPollers + kPlain; ++a)
        act->after(a, a % 2 ? 5 : 3);
    act->oneShot(5, [&trace, &act] { trace.emplace_back(3000, act->now()); });
    for (Tick t = 250; t <= 20000; t += 250) {
        act->runUntil(t);
        const std::uint64_t roll = rng.below(4);
        const unsigned b = unsigned(rng.below(kPollers + kPlain));
        if (roll == 0) {
            // Fires in this tick's second window, after its closing.
            act->oneShot(0, [&, b] {
                trace.emplace_back(4000, act->now());
                inject(b % kPollers, act->now() + 1 + rng.below(40));
                act->cancel(b);
                act->after(b, periodOf(b));
            });
        } else if (roll == 1) {
            act->oneShot(periodOf(b), [&trace, &act] {
                trace.emplace_back(5000, act->now());
            });
            inject(b % kPollers, t + 1 + rng.below(40));
        } else if (roll == 2) {
            act->cancel(b);
            act->after(b, pickDelay(b));
        }
    }
    if constexpr (requires { act->sleeps(); }) {
        if (sleeps != nullptr)
            *sleeps = act->sleeps();
    }
    return trace;
}

} // namespace

TEST(EngineEquivalence, SleepingPollersKeepReferenceOrder)
{
    // Idle pollers sleep on Engine and re-arm every period on the
    // reference heap; the firings that are not skipped must match
    // tick for tick, whatever shares their tick: busy re-arms and
    // one-shots exactly one period ahead, other sleepers (same and
    // different periods), set-up and between-window schedules,
    // early wakes and cancels.
    for (std::uint64_t seed : {0x51EEull, 0xB0B0ull, 0xC0DEull}) {
        std::uint64_t sleeps = 0;
        const auto a = traceSleepMix<EngineActors>(seed, &sleeps);
        const auto b = traceSleepMix<ReferenceActors>(seed);
        ASSERT_GT(a.size(), 2000u);
        ASSERT_GT(sleeps, 500u);
        for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
            ASSERT_EQ(a[i].first, b[i].first)
                << "seed " << seed << " at event " << i << " tick "
                << b[i].second;
            ASSERT_EQ(a[i].second, b[i].second)
                << "seed " << seed << " at event " << i;
        }
        ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    }
}

TEST(EngineRecurring, SleepSkipsIdleFiringsAndWakeByBringsItForward)
{
    Engine eng;
    Engine::Recurring ev;
    std::vector<Tick> fired;
    ev.init(eng, [&] { fired.push_back(eng.now()); });
    Engine::Recurring caller;
    caller.init(eng, [&] { ev.sleep(10, 95); });
    caller.arm(3);
    eng.runUntil(50);
    // Asleep from tick 3 on the grid 3 + 10k: wakes at 103, not 95.
    EXPECT_TRUE(ev.sleeping());
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(eng.eventsFired(), 1u);
    ev.wakeBy(61); // an earlier input: the first grid tick at or after
    eng.runUntil(200);
    EXPECT_EQ(fired, std::vector<Tick>{63});
    EXPECT_FALSE(ev.sleeping());
    EXPECT_EQ(eng.eventsFired(), 2u);

    // Sleeping "forever" queues nothing until woken; cancel drops it.
    caller.init(eng, [&] { ev.sleep(10, Engine::kNever); });
    caller.arm(1);
    eng.runUntil(1000);
    EXPECT_TRUE(ev.sleeping());
    EXPECT_EQ(eng.pending(), 0u);
    ev.wakeBy(1234);
    EXPECT_EQ(eng.pending(), 1u);
    ev.cancel();
    EXPECT_FALSE(ev.sleeping());
    eng.runUntil(5000);
    EXPECT_EQ(fired, std::vector<Tick>{63});
}

// --- throughput smoke -----------------------------------------------------

TEST(EngineThroughput, SustainsEventsFastEnoughForTheSweeps)
{
    // Generous smoke bound (~50x slack vs. the measured hot path) so
    // the test only trips on a catastrophic regression — e.g. the
    // event path reacquiring a per-event heap allocation.
    Engine eng;
    Engine::Recurring ev;
    std::uint64_t n = 0;
    constexpr std::uint64_t kEvents = 1'000'000;
    ev.init(eng, [&] {
        if (++n < kEvents)
            ev.arm(1);
    });
    ev.arm(1);

    const auto t0 = std::chrono::steady_clock::now();
    eng.runUntil(kEvents + 1);
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_EQ(n, kEvents);
    EXPECT_EQ(eng.eventsFired(), kEvents);

    const double ns_per_event =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        double(kEvents);
    EXPECT_LT(ns_per_event, 1000.0);
}
