/**
 * @file
 * Deterministic pseudo-random number generation for PangenomicsBench.
 *
 * All randomness in the suite flows through Xoshiro256StarStar so that
 * datasets, workloads, and benchmarks are reproducible from a single
 * seed. The generator follows Blackman & Vigna's xoshiro256** reference
 * implementation; seeding uses splitmix64 as they recommend.
 */

#ifndef PGB_CORE_RNG_HPP
#define PGB_CORE_RNG_HPP

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace pgb::core {

/** Splitmix64 step, used to expand a 64-bit seed into generator state. */
inline uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can drive
 * standard-library distributions, though the suite prefers the built-in
 * helpers below for cross-platform determinism.
 */
class Xoshiro256StarStar
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Xoshiro256StarStar(uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<uint64_t>::max();
    }

    /** Next 64 random bits. */
    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). Bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation.
        __uint128_t m = static_cast<__uint128_t>(operator()()) * bound;
        auto lo = static_cast<uint64_t>(m);
        if (lo < bound) {
            const uint64_t threshold = -bound % bound;
            while (lo < threshold) {
                m = static_cast<__uint128_t>(operator()()) * bound;
                lo = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    between(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
            below(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Zipf-like sample in [1, n] with exponent theta, via inverse
     * transform on the continuous approximation. PGSGD uses this family
     * to bias anchor-pair sampling toward nearby path positions.
     */
    uint64_t
    zipf(uint64_t n, double theta)
    {
        // Continuous power-law inverse CDF clamped to [1, n].
        const double u = uniform();
        if (theta == 1.0) {
            const double v = std::pow(static_cast<double>(n), u);
            const auto x = static_cast<uint64_t>(v);
            return x < 1 ? 1 : (x > n ? n : x);
        }
        const double a = 1.0 - theta;
        const double v = std::pow(
            u * (std::pow(static_cast<double>(n), a) - 1.0) + 1.0, 1.0 / a);
        const auto x = static_cast<uint64_t>(v);
        return x < 1 ? 1 : (x > n ? n : x);
    }

    /** Jump the generator by a unique stream index (for Hogwild lanes). */
    static Xoshiro256StarStar
    forStream(uint64_t seed, uint64_t stream)
    {
        return Xoshiro256StarStar(seed ^ (0xA0761D6478BD642Full * (stream + 1)));
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
};

/** Suite-wide default RNG alias. */
using Rng = Xoshiro256StarStar;

} // namespace pgb::core

#endif // PGB_CORE_RNG_HPP
