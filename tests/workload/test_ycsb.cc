/**
 * @file
 * Statistical and determinism tests for the YCSB scrambled-zipfian
 * generator (workload/ycsb.hh): the rank-frequency curve must follow
 * the zipf law within tolerance, equal seeds must yield equal
 * streams, $A4_SEED (via mixSeed) must shift the stream, and the
 * n=1 / large-n edges must behave.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "workload/ycsb.hh"

using namespace a4;

namespace
{

/** Set an env var for one test, restoring the old value after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *key, const char *value) : key_(key)
    {
        const char *old = std::getenv(key);
        had_ = old != nullptr;
        old_ = old ? old : "";
        if (value)
            ::setenv(key, value, 1);
        else
            ::unsetenv(key);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(key_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(key_.c_str());
    }

  private:
    std::string key_, old_;
    bool had_ = false;
};

std::vector<std::uint64_t>
rankCounts(std::uint64_t n, double theta, std::uint64_t seed,
           std::size_t draws)
{
    ZipfianGenerator g(n, theta, seed);
    std::vector<std::uint64_t> counts(n, 0);
    for (std::size_t i = 0; i < draws; ++i)
        ++counts[g.next()];
    return counts;
}

std::vector<std::uint64_t>
scrambledStream(std::uint64_t n, double theta, std::uint64_t seed,
                std::size_t draws)
{
    ZipfianGenerator g(n, theta, seed);
    std::vector<std::uint64_t> out;
    out.reserve(draws);
    for (std::size_t i = 0; i < draws; ++i)
        out.push_back(g.nextScrambled());
    return out;
}

} // namespace

TEST(Ycsb, RankFrequencyFollowsTheZipfLaw)
{
    // P(rank k) ~ 1/(k+1)^theta, so count(0)/count(k) ~ (k+1)^theta.
    // The generator is deterministic, so the tolerance only absorbs
    // the law's own approximation + finite-sample noise, not runs.
    const double theta = 0.99;
    const std::size_t draws = 200000;
    const auto counts = rankCounts(1000, theta, 42, draws);

    ASSERT_GT(counts[0], counts[9]);
    ASSERT_GT(counts[9], counts[99]);
    for (std::uint64_t k : {std::uint64_t(9), std::uint64_t(99)}) {
        const double want = std::pow(double(k + 1), theta);
        const double got = double(counts[0]) / double(counts[k]);
        EXPECT_NEAR(got / want, 1.0, 0.25) << "rank " << k;
    }
    // The head really is heavy: rank 0 alone carries > 10 % of the
    // stream at theta=0.99, n=1000 (1/zeta(1000) ~ 0.13).
    EXPECT_GT(double(counts[0]) / double(draws), 0.10);
}

TEST(Ycsb, ScrambleSpreadsTheHotKeysButKeepsTheSkew)
{
    // The scramble is a fixed hash of the rank: the hottest scrambled
    // key must carry (almost) exactly the hottest rank's frequency,
    // but must not be key 0 anymore.
    const std::size_t draws = 100000;
    const auto ranks = rankCounts(1000, 0.99, 7, draws);
    const auto stream = scrambledStream(1000, 0.99, 7, draws);
    std::vector<std::uint64_t> counts(1000, 0);
    for (std::uint64_t v : stream) {
        ASSERT_LT(v, 1000u);
        ++counts[v];
    }
    std::uint64_t hot = 0;
    for (std::uint64_t k = 0; k < counts.size(); ++k) {
        if (counts[k] > counts[hot])
            hot = k;
    }
    EXPECT_NE(hot, 0u); // rank 0 moved somewhere else
    // Hash collisions can only add mass to the hottest key.
    EXPECT_GE(counts[hot], ranks[0]);
    EXPECT_NEAR(double(counts[hot]) / double(ranks[0]), 1.0, 0.10);
}

TEST(Ycsb, EqualSeedsYieldEqualStreams)
{
    const auto a = scrambledStream(4096, 0.99, 1234, 2000);
    const auto b = scrambledStream(4096, 0.99, 1234, 2000);
    EXPECT_EQ(a, b);
    const auto c = scrambledStream(4096, 0.99, 1235, 2000);
    EXPECT_NE(a, c);
}

TEST(Ycsb, MixSeedEnvShiftsTheStreamDeterministically)
{
    ScopedEnv clear("A4_SEED", nullptr);
    const auto base = scrambledStream(4096, 0.99, mixSeed(1234), 2000);
    {
        ScopedEnv seed("A4_SEED", "7");
        const auto a = scrambledStream(4096, 0.99, mixSeed(1234), 2000);
        const auto b = scrambledStream(4096, 0.99, mixSeed(1234), 2000);
        EXPECT_EQ(a, b); // equal $A4_SEED reproduces
        EXPECT_NE(a, base);
    }
    // Unset again: back to the default stream bit-exactly.
    EXPECT_EQ(scrambledStream(4096, 0.99, mixSeed(1234), 2000), base);
}

TEST(Ycsb, SingleKeySpaceAlwaysReturnsZero)
{
    ZipfianGenerator g(1, 0.99, 99);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(g.next(), 0u);
        EXPECT_EQ(g.nextScrambled(), 0u);
    }
}

TEST(Ycsb, LargeKeySpaceUsesTheZetaTailEstimate)
{
    // n far past the exact-zeta cutoff (100000): samples must stay in
    // range and the head must still dominate.
    const std::uint64_t n = 10000000;
    ZipfianGenerator g(n, 0.99, 5);
    std::size_t head = 0;
    const std::size_t draws = 20000;
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t v = g.next();
        ASSERT_LT(v, n);
        head += v == 0;
    }
    // 1/zeta(1e7, 0.99) ~ 0.05: rank 0 keeps a few percent even of a
    // ten-million key space.
    EXPECT_GT(double(head) / double(draws), 0.02);
}
