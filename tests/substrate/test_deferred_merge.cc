/**
 * @file
 * Contract of the cache's deferred-access merge (the observation
 * barrier, cache/hierarchy.hh): scripted DeferredIoSources drained
 * through CacheSystem must apply exactly the sequence a naive O(N)
 * scan produces -- earliest timestamp first, ties to the lower attach
 * index -- across same-tick ties, a source that stops unannounced, a
 * restart announced through noteDeferredTick(), a detached middle
 * source, applies that re-enter the cache, and sources attaching and
 * detaching between drains (the merge rebuilds at the next drain).
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"
#include "sim/rng.hh"

using namespace a4;

namespace
{

using Applied = std::vector<std::pair<int, Tick>>;

CacheGeometry
tinyGeom()
{
    CacheGeometry g;
    g.num_cores = 4;
    g.llc_ways = 11;
    g.llc_sets = 64;
    g.mlc_ways = 4;
    g.mlc_sets = 16;
    return g;
}

/** A source replaying a fixed, non-decreasing list of access ticks. */
class ScriptedSource : public DeferredIoSource
{
  public:
    ScriptedSource(int id, std::vector<Tick> ticks, Applied &log)
        : id_(id), ticks_(std::move(ticks)), log_(log)
    {}

    Tick
    deferredTick() const override
    {
        return stopped_ || pos_ == ticks_.size() ? kNoDeferredIo
                                                 : ticks_[pos_];
    }

    void
    applyDeferredAccess() override
    {
        // A nested apply would mean a re-entrant drain ran its own
        // merge inside ours.
        EXPECT_FALSE(applying_) << "nested apply on source " << id_;
        applying_ = true;
        const Tick when = ticks_[pos_++];
        log_.emplace_back(id_, when);
        if (reenter_ != nullptr) {
            static constexpr std::array<CoreId, 1> kCore = {0};
            reenter_->dmaWriteLine(when, 0x100000 + Addr(id_) * 0x1000 +
                                             (pos_ % 32) * kLineBytes,
                                   1, kCore, true);
        }
        applying_ = false;
    }

    /** Go idle without telling the cache (as Nic::stop() does). */
    void stop() { stopped_ = true; }

    /** Resume with @p ticks, which may start below the old tick. */
    void
    restart(std::vector<Tick> ticks)
    {
        ticks_ = std::move(ticks);
        pos_ = 0;
        stopped_ = false;
    }

    /** Make every apply write a line through @p cache. */
    void reenterThrough(CacheSystem &cache) { reenter_ = &cache; }

  private:
    int id_;
    std::vector<Tick> ticks_;
    Applied &log_;
    std::size_t pos_ = 0;
    bool stopped_ = false;
    CacheSystem *reenter_ = nullptr;
    static inline bool applying_ = false;
};

/** The merge rule spelled out: scan every source for the earliest
 *  tick <= now, the first in attach order winning ties. */
class NaiveMerge
{
  public:
    void attach(DeferredIoSource &s) { srcs_.push_back(&s); }
    void detach(DeferredIoSource &s) { std::erase(srcs_, &s); }

    void
    drain(Tick now)
    {
        for (;;) {
            DeferredIoSource *best = nullptr;
            Tick best_tick = kNoDeferredIo;
            for (DeferredIoSource *s : srcs_) {
                const Tick t = s->deferredTick();
                if (t <= now && t < best_tick) {
                    best = s;
                    best_tick = t;
                }
            }
            if (best == nullptr)
                return;
            best->applyDeferredAccess();
        }
    }

  private:
    std::vector<DeferredIoSource *> srcs_;
};

constexpr int kSources = 65;

/** Source @p i's script: a few periods that tie across sources. */
std::vector<Tick>
scriptFor(int i)
{
    const Tick period = 10 * Tick(1 + i % 5);
    std::vector<Tick> ticks;
    for (Tick t = Tick(i % 3) * 5; t < 4000; t += period)
        ticks.push_back(t);
    return ticks;
}

/** The scenario both merges run; @p side adapts attach, detach,
 *  drain, the restart announcement and re-entry to either merge. */
template <typename Side>
Applied
runScenario(Side &side)
{
    Applied log;
    std::vector<std::unique_ptr<ScriptedSource>> srcs;
    for (int i = 0; i < kSources; ++i) {
        srcs.push_back(
            std::make_unique<ScriptedSource>(i, scriptFor(i), log));
        side.attach(*srcs.back());
    }
    side.reenter(*srcs[7]);
    side.reenter(*srcs[40]);

    Rng rng(0xD7A1);
    Tick now = 0;
    for (int step = 0; step < 400; ++step) {
        now += rng.below(25); // repeats and small hops: ties at `now`
        if (step == 60)
            srcs[12]->stop(); // its cached tick is now stale-low
        if (step == 100) {
            srcs[50]->restart({now + 100000}); // parked far ahead
            side.announce(*srcs[50]);
        }
        if (step == 120) {
            // Restart below everything pending: must be announced.
            srcs[12]->restart({now, now, now + 3, now + 500});
            side.announce(*srcs[12]);
        }
        if (step == 180) {
            // The parked source jumps back near `now`.
            srcs[50]->restart({now + 1, now + 2, now + 2});
            side.announce(*srcs[50]);
        }
        if (step == 200)
            side.detach(*srcs[kSources / 2]); // a middle source
        side.drain(now);
    }
    side.drain(kNoDeferredIo - 1);
    for (auto &s : srcs)
        side.detach(*s);
    return log;
}

/** Sources attaching and detaching between drains: a few at a time,
 *  with restarts announced while the merge is stale, every source
 *  detached at once, and a re-attach after the merge ran empty. */
template <typename Side>
Applied
runChurn(Side &side)
{
    constexpr int kPool = 24;
    Applied log;
    std::vector<std::unique_ptr<ScriptedSource>> srcs;
    std::vector<bool> attached(kPool, false);
    for (int i = 0; i < kPool; ++i) {
        srcs.push_back(
            std::make_unique<ScriptedSource>(i, scriptFor(i), log));
    }
    auto attach = [&](int i) {
        side.attach(*srcs[i]);
        attached[i] = true;
    };
    auto detach = [&](int i) {
        side.detach(*srcs[i]);
        attached[i] = false;
    };
    for (int i = 0; i < kPool / 2; ++i)
        attach(i);
    side.reenter(*srcs[3]);

    Rng rng(0xC4A2);
    Tick now = 0;
    for (int step = 0; step < 300; ++step) {
        now += rng.below(25);
        // Up to three changes, so one drain folds in several.
        for (int c = int(rng.below(4)); c > 0; --c) {
            const auto i = int(rng.below(kPool));
            if (!attached[i]) {
                attach(i); // may already be behind `now`: applied next
            } else if (rng.chance(0.5)) {
                detach(i);
            } else {
                // Restart, announced before the next drain's rebuild.
                srcs[i]->restart({now, now + 7, now + 7, now + 40});
                side.announce(*srcs[i]);
            }
        }
        if (step == 150) {
            for (int i = 0; i < kPool; ++i) {
                if (attached[i])
                    detach(i);
            }
            side.drain(now); // an empty merge
            attach(5);
        }
        side.drain(now);
    }
    side.drain(kNoDeferredIo - 1);
    for (int i = 0; i < kPool; ++i) {
        if (attached[i])
            detach(i);
    }
    side.drain(kNoDeferredIo - 1);
    return log;
}

struct CacheSide
{
    Dram dram;
    CatController cat{11, 4};
    CacheSystem cache{tinyGeom(), CacheLatencies{}, dram, cat};

    void attach(DeferredIoSource &s) { cache.attachDeferredSource(s); }
    void detach(DeferredIoSource &s) { cache.detachDeferredSource(s); }
    void drain(Tick now) { cache.drainDeferred(now); }
    void announce(DeferredIoSource &s) { cache.noteDeferredTick(s); }
    void reenter(ScriptedSource &s) { s.reenterThrough(cache); }
};

struct NaiveSide
{
    Dram dram;
    CatController cat{11, 4};
    CacheSystem cache{tinyGeom(), CacheLatencies{}, dram, cat};
    NaiveMerge merge;

    void attach(DeferredIoSource &s) { merge.attach(s); }
    void detach(DeferredIoSource &s) { merge.detach(s); }
    void drain(Tick now) { merge.drain(now); }
    void announce(DeferredIoSource &) {}
    void reenter(ScriptedSource &s) { s.reenterThrough(cache); }
};

} // namespace

TEST(DeferredMerge, MatchesNaiveScanAcrossStopRestartDetach)
{
    CacheSide fast;
    NaiveSide naive;
    const Applied a = runScenario(fast);
    const Applied b = runScenario(naive);
    ASSERT_GT(a.size(), 5000u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].first, b[i].first) << "at apply " << i;
        ASSERT_EQ(a[i].second, b[i].second) << "at apply " << i;
    }
    // The re-entrant writes landed in the same order on both sides.
    EXPECT_GT(fast.cache.wlConst(1).dma_lines_written.value(), 0u);
    EXPECT_EQ(fast.cache.wlConst(1).dma_lines_written.value(),
              naive.cache.wlConst(1).dma_lines_written.value());
    EXPECT_EQ(fast.cache.llcWayOccupancyOf(1),
              naive.cache.llcWayOccupancyOf(1));
}

TEST(DeferredMerge, MatchesNaiveScanAcrossAttachDetachBetweenDrains)
{
    CacheSide fast;
    NaiveSide naive;
    const Applied a = runChurn(fast);
    const Applied b = runChurn(naive);
    ASSERT_GT(a.size(), 1000u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].first, b[i].first) << "at apply " << i;
        ASSERT_EQ(a[i].second, b[i].second) << "at apply " << i;
    }
    EXPECT_EQ(fast.cache.wlConst(1).dma_lines_written.value(),
              naive.cache.wlConst(1).dma_lines_written.value());
}

TEST(DeferredMerge, TiesGoToTheLowerAttachIndex)
{
    Dram dram;
    CatController cat(11, 4);
    CacheSystem cache(tinyGeom(), CacheLatencies{}, dram, cat);
    Applied log;
    std::vector<std::unique_ptr<ScriptedSource>> srcs;
    for (int i = 0; i < kSources; ++i) {
        srcs.push_back(std::make_unique<ScriptedSource>(
            i, std::vector<Tick>{100, 100, 200}, log));
        cache.attachDeferredSource(*srcs.back());
    }
    cache.drainDeferred(99);
    EXPECT_TRUE(log.empty());
    cache.drainDeferred(100);
    ASSERT_EQ(log.size(), std::size_t(2 * kSources));
    for (int i = 0; i < kSources; ++i) {
        EXPECT_EQ(log[2 * i], std::make_pair(i, Tick(100)));
        EXPECT_EQ(log[2 * i + 1], std::make_pair(i, Tick(100)));
    }
    for (auto &s : srcs)
        cache.detachDeferredSource(*s);
}
