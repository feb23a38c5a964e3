/**
 * @file
 * Engine snapshot protocol (sim/serialize.hh + the engine's
 * saveBegin/saveEnd and restoreBegin/restoreEnd brackets): a restored
 * engine continues the exact (tick, seq) key sequence, pending() and
 * the diagnostic counters survive the round-trip, and Recurring/Batch
 * slots re-arm identically — the invariants the warm-up checkpoint
 * layer (harness/checkpoint.hh) builds its bit-identity claim on.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/serialize.hh"

using namespace a4;

namespace
{

/** A self-rearming actor recording its firing ticks. */
struct Ticker
{
    Engine::Recurring ev;
    std::vector<Tick> fired;
    Tick period;

    Ticker(Engine &eng, Tick period_) : period(period_)
    {
        ev.init(eng, [this, &eng] {
            fired.push_back(eng.now());
            ev.arm(period);
        });
    }

    void start() { ev.arm(period); }
};

/** Periods of FifoMix's relative actors: more than the engine's
 *  delay FIFOs. */
constexpr Tick kMixPeriods[] = {3, 4, 5, 6, 7, 9, 11, 13, 17, 19, 23, 29};
constexpr int kMixActors = int(std::size(kMixPeriods)) + 1;

/** kMixPeriods actors plus a last one that re-arms at an absolute
 *  tick, recording the global firing order. */
struct FifoMix
{
    Engine eng;
    std::vector<std::pair<int, Tick>> trace;
    std::vector<Engine::Recurring> evs{std::size_t(kMixActors)};

    FifoMix()
    {
        for (int i = 0; i < kMixActors; ++i) {
            evs[i].init(eng, [this, i] {
                trace.emplace_back(i, eng.now());
                if (i < kMixActors - 1)
                    evs[i].arm(kMixPeriods[i]);
                else
                    evs[i].armAt(eng.now() + 6);
            });
        }
    }
};

} // namespace

TEST(EngineSnapshot, RestoredEngineContinuesIdentically)
{
    // Saved mid-run, the restored engine must replay the remaining
    // schedule tick for tick.
    Engine a;
    Ticker ta(a, 10);
    ta.start();
    a.runUntil(25); // fired at 10, 20; next firing queued at 30

    Serializer s;
    a.saveBegin(s);
    ta.ev.saveQueued(s);
    a.saveEnd(s);

    Engine b;
    Ticker tb(b, 10);
    Deserializer d(s.data());
    b.restoreBegin(d);
    tb.ev.restoreQueued(d);
    b.restoreEnd(d);
    EXPECT_TRUE(d.atEnd());

    EXPECT_EQ(b.now(), a.now());
    EXPECT_EQ(b.pending(), a.pending());
    EXPECT_EQ(b.eventsFired(), a.eventsFired());

    a.runUntil(100);
    b.runUntil(100);
    EXPECT_EQ(tb.fired, (std::vector<Tick>{30, 40, 50, 60, 70, 80,
                                           90, 100}));
    EXPECT_EQ(a.eventsFired(), b.eventsFired());
    EXPECT_EQ(a.now(), b.now());
}

TEST(EngineSnapshot, KeySequenceContinuesExactly)
{
    // The saved side armed its firing first, so its queue key has a
    // smaller sequence than anything scheduled after the restore. If
    // restoreBegin() failed to carry next_seq over, the one-shot
    // below would (incorrectly) win the same-tick tie.
    Engine a;
    Ticker ta(a, 100);
    ta.start(); // queued at tick 100 with the first sequence number

    Serializer s;
    a.saveBegin(s);
    ta.ev.saveQueued(s);
    a.saveEnd(s);

    Engine b;
    Ticker tb(b, 100);
    Deserializer d(s.data());
    b.restoreBegin(d);
    tb.ev.restoreQueued(d);
    b.restoreEnd(d);

    std::vector<int> order;
    b.schedule(100, [&] { order.push_back(2); });
    b.runUntil(100);
    ASSERT_EQ(tb.fired, std::vector<Tick>{100});
    EXPECT_EQ(order, std::vector<int>{2}); // recurring fired first
}

TEST(EngineSnapshot, PendingAndCountersSurviveRoundTrip)
{
    Engine a;
    Ticker ta(a, 7);
    ta.start();
    ta.ev.arm(3); // two live firings on one slot
    a.runUntil(30);

    Serializer s;
    a.saveBegin(s);
    ta.ev.saveQueued(s);
    a.saveEnd(s);

    Engine b;
    Ticker tb(b, 7);
    Deserializer d(s.data());
    b.restoreBegin(d);
    tb.ev.restoreQueued(d);
    b.restoreEnd(d);

    EXPECT_EQ(b.pending(), a.pending());
    EXPECT_EQ(b.now(), a.now());
    EXPECT_EQ(b.eventsFired(), a.eventsFired());
    EXPECT_EQ(b.pastEvents(), a.pastEvents());
    EXPECT_EQ(b.batchFirings(), a.batchFirings());
    EXPECT_EQ(b.batchExpanded(), a.batchExpanded());
}

TEST(EngineSnapshot, BatchReArmsIdentically)
{
    // Each side records the (begin, end] windows its batch expands;
    // the restored pump must cover the same intervals and accumulate
    // the same firing/expansion counters.
    using Window = std::pair<Tick, Tick>;
    auto build = [](Engine &eng, std::vector<Window> &log,
                    Engine::Batch &batch) {
        batch.init(eng, [&log](Tick begin, Tick end) {
            log.push_back({begin, end});
            return std::uint64_t(end - begin);
        });
    };

    Engine a;
    std::vector<Window> wa;
    Engine::Batch ba;
    build(a, wa, ba);
    ba.start(7);
    a.runUntil(20); // firings at 7, 14; next queued at 21

    Serializer s;
    a.saveBegin(s);
    ba.saveState(s);
    a.saveEnd(s);

    Engine b;
    std::vector<Window> wb;
    Engine::Batch bb;
    build(b, wb, bb);
    Deserializer d(s.data());
    b.restoreBegin(d);
    bb.restoreState(d);
    b.restoreEnd(d);

    EXPECT_EQ(bb.active(), ba.active());
    EXPECT_EQ(bb.period(), ba.period());

    a.runUntil(60);
    b.runUntil(60);
    EXPECT_EQ(wb, (std::vector<Window>{{14, 21}, {21, 28}, {28, 35},
                                       {35, 42}, {42, 49}, {49, 56}}));
    EXPECT_EQ(wa.size() - 2, wb.size()); // minus the pre-save firings
    EXPECT_EQ(b.batchFirings(), a.batchFirings());
    EXPECT_EQ(b.batchExpanded(), a.batchExpanded());
}

TEST(EngineSnapshot, FifoAndHeapEventsContinueIdentically)
{
    // Twelve periods keep more delays live than the engine has delay
    // FIFOs, so at the save some firings sit in FIFOs and the rest on
    // the heap, next to one actor that always re-arms at an absolute
    // tick (heap only). Restored keys all re-enter through the heap;
    // the global firing order must still continue exactly.
    FifoMix a;
    for (int i = 0; i < kMixActors; ++i)
        a.evs[i].arm(i < kMixActors - 1 ? kMixPeriods[i] : 6);
    a.eng.runUntil(100);
    EXPECT_EQ(a.eng.pending(), std::size_t(kMixActors));

    Serializer s;
    a.eng.saveBegin(s);
    for (const Engine::Recurring &ev : a.evs)
        ev.saveQueued(s);
    a.eng.saveEnd(s);

    FifoMix b;
    Deserializer d(s.data());
    b.eng.restoreBegin(d);
    for (Engine::Recurring &ev : b.evs)
        ev.restoreQueued(d);
    b.eng.restoreEnd(d);
    EXPECT_EQ(b.eng.pending(), a.eng.pending());

    const std::size_t saved = a.trace.size();
    a.eng.runUntil(3000);
    b.eng.runUntil(3000);
    const std::vector<std::pair<int, Tick>> after(a.trace.begin() + std::ptrdiff_t(saved),
                      a.trace.end());
    ASSERT_GT(after.size(), 1000u);
    EXPECT_EQ(b.trace, after);
    EXPECT_EQ(b.eng.eventsFired(), a.eng.eventsFired());

    // A one-shot queued behind the front (in a FIFO) still refuses
    // the save, like one on the heap or in the front.
    a.eng.schedule(1, [] {});
    Serializer s2;
    EXPECT_THROW(a.eng.saveBegin(s2), SnapshotError);
}

TEST(EngineSnapshot, LiveOneShotRefusesToSnapshot)
{
    // A raw schedule()d closure cannot be rebuilt on restore, so the
    // engine must refuse the save rather than drop the event.
    Engine eng;
    eng.schedule(10, [] {});
    Serializer s;
    EXPECT_THROW(eng.saveBegin(s), SnapshotError);
}

TEST(EngineSnapshot, UnclaimedRecurringFailsSaveEnd)
{
    // A live firing no component claims would silently fall out of
    // the image; saveEnd() must catch it.
    Engine eng;
    Ticker t(eng, 10);
    t.start();
    Serializer s;
    eng.saveBegin(s);
    EXPECT_THROW(eng.saveEnd(s), SnapshotError);
}

TEST(EngineSnapshot, RestoreRequiresFreshEngine)
{
    Engine a;
    Ticker ta(a, 10);
    ta.start();
    a.runUntil(5);
    Serializer s;
    a.saveBegin(s);
    ta.ev.saveQueued(s);
    a.saveEnd(s);

    Engine b;
    Ticker tb(b, 10);
    tb.start(); // already queued: not a fresh engine
    Deserializer d(s.data());
    EXPECT_THROW(b.restoreBegin(d), SnapshotError);
}
