/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small xoshiro256** generator seeded via splitmix64. Every stochastic
 * component of the simulator owns its own Rng instance so that runs are
 * reproducible regardless of actor interleaving.
 */

#ifndef A4_SIM_RNG_HH
#define A4_SIM_RNG_HH

#include <cmath>
#include <cstdint>

namespace a4
{

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        // splitmix64 expansion of the seed into the full state.
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Exponentially distributed double with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        if (u >= 1.0)
            u = 0.999999999;
        return -mean * std::log(1.0 - u);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/**
 * $A4_SEED as a global RNG-stream selector: 0 when unset (or 0 — the
 * default streams), otherwise the parsed value. Malformed values are
 * rejected whole with one warning per offending value, like every
 * other A4_* knob. Read at each workload/device construction, so
 * tests can change the environment between runs.
 */
std::uint64_t envSeed();

/**
 * Effective seed for a component whose built-in stream is @p base.
 *
 * Identity when $A4_SEED is unset — runs without the knob are
 * bit-identical to builds that predate it. With a seed, the pair
 * (base, seed) is mixed splitmix64-style so every component still
 * gets its own decorrelated stream and equal seeds reproduce equal
 * runs. Every Rng constructed by a workload or device model must go
 * through this helper; raw `Rng(cfg.seed)` would pin the stream and
 * silently ignore the knob.
 */
inline std::uint64_t
mixSeed(std::uint64_t base)
{
    const std::uint64_t s = envSeed();
    if (s == 0)
        return base;
    std::uint64_t z = base + 0x9E3779B97F4A7C15ull * s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Derived seed for replica @p idx of a replicated spec entry whose
 * own stream is @p base (the `replicate=` expansion).
 *
 * Replica 0 keeps the base stream — `replicate = 1` stays
 * bit-identical to the unreplicated entry — and each further replica
 * mixes (base, idx) splitmix64-style into its own decorrelated
 * stream. The derived value travels through the expanded spec's
 * ordinary `seed` knob, so mixSeed()/$A4_SEED still compose on top.
 */
inline std::uint64_t
tenantSeed(std::uint64_t base, std::uint64_t idx)
{
    if (idx == 0)
        return base;
    std::uint64_t z = base + 0x9E3779B97F4A7C15ull * idx;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace a4

#endif // A4_SIM_RNG_HH
