/**
 * @file
 * YCSB key-distribution generators.
 *
 * Implements the scrambled-zipfian generator from the YCSB core
 * (Gray et al.'s incremental-zeta method) used to drive the Redis
 * workload with YCSB-A (update-heavy, 50/50 read/update, zipfian
 * request distribution).
 */

#ifndef A4_WORKLOAD_YCSB_HH
#define A4_WORKLOAD_YCSB_HH

#include <cmath>
#include <cstdint>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace a4
{

/** Zipfian-distributed integers in [0, n), theta-parameterised. */
class ZipfianGenerator
{
  public:
    explicit ZipfianGenerator(std::uint64_t n, double theta = 0.99,
                              std::uint64_t seed = 1234)
        : n_(n), theta_(theta), rng_(seed)
    {
        if (n == 0)
            fatal("ZipfianGenerator: empty key space");
        zetan_ = zeta(n_, theta_);
        zeta2_ = zeta(2, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                               1.0 - theta_)) /
               (1.0 - zeta2_ / zetan_);
    }

    /** Next zipfian sample (rank order: 0 is the hottest key). */
    std::uint64_t
    next()
    {
        double u = rng_.uniform();
        double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        auto v = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return v >= n_ ? n_ - 1 : v;
    }

    /** Scrambled variant: spreads hot keys across the key space. */
    std::uint64_t
    nextScrambled()
    {
        std::uint64_t v = next();
        // FNV-1a style scramble, stable across runs.
        std::uint64_t h = 0xCBF29CE484222325ull;
        h = (h ^ v) * 0x100000001B3ull;
        h = (h ^ (v >> 32)) * 0x100000001B3ull;
        return h % n_;
    }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        // Exact for small n; two-point Euler tail estimate beyond.
        constexpr std::uint64_t kExact = 100000;
        double sum = 0.0;
        std::uint64_t upto = n < kExact ? n : kExact;
        for (std::uint64_t i = 1; i <= upto; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        if (n > kExact) {
            // Integral tail: sum_{kExact+1..n} x^-theta dx.
            double a = static_cast<double>(kExact);
            double b = static_cast<double>(n);
            sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
                   (1.0 - theta);
        }
        return sum;
    }

    std::uint64_t n_;
    double theta_;
    Rng rng_;
    double zetan_;
    double zeta2_;
    double alpha_;
    double eta_;
};

} // namespace a4

#endif // A4_WORKLOAD_YCSB_HH
