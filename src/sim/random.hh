/**
 * @file
 * Deterministic random number generation: xoshiro256** plus the usual
 * distributions and a Zipfian sampler (Gray et al., "Quickly generating
 * billion-record synthetic databases"), as used for the paper's Zipfian
 * index streams (Sec. 3.3, citing [21]).
 */

#ifndef TAKO_SIM_RANDOM_HH
#define TAKO_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <vector>

namespace tako
{

/** xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x1234abcdULL) { reseed(seed); }

    void
    reseed(std::uint64_t seed)
    {
        // splitmix64 to fill state from a single seed.
        std::uint64_t x = seed;
        for (auto &word : s_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire-style multiply-shift; bias is negligible for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial. */
    bool chance(double p) { return real() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Zipfian distribution over [0, n) with skew @p theta (default 0.99, the
 * YCSB convention). Items are ranked by index: 0 is hottest.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t numItems() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
};

} // namespace tako

#endif // TAKO_SIM_RANDOM_HH
