/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * All stochastic behaviour in the simulator (workload data generation,
 * fault injection, adversarial corruption) flows through this RNG so
 * that every run is exactly reproducible from a seed.
 */

#ifndef MSSP_SIM_RNG_HH
#define MSSP_SIM_RNG_HH

#include <cstdint>

namespace mssp
{

/**
 * splitmix64 generator; small, fast, deterministic. Its state is a
 * counter: each draw adds Gamma and returns a hash of the sum. So a
 * stream can skip draws in O(1) and look at a future draw without
 * consuming it (the fault injector's hit scan relies on both).
 */
class Rng
{
  public:
    /** The state increment per draw (odd, so invertible mod 2^64). */
    static constexpr uint64_t Gamma = 0x9e3779b97f4a7c15ull;

    explicit Rng(uint64_t seed = Gamma)
        : state(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    uint64_t next() { return finalize(state += Gamma); }

    /** Consume @p n draws without computing them. */
    void skip(uint64_t n) { state += n * Gamma; }

    /** The raw value the @p k-th next() from now returns (k >= 1),
     *  without consuming anything. */
    uint64_t peek(uint64_t k) const { return finalize(state + k * Gamma); }

    /** The stream position: the state the last draw left behind. */
    uint64_t position() const { return state; }

    /** Draws that take the stream from position @p from to @p to. */
    static uint64_t
    drawsBetween(uint64_t from, uint64_t to)
    {
        return (to - from) * GammaInverse;
    }

    /** Map a raw value to [0, 1), as uniform() and chance() do. */
    static double
    unit(uint64_t raw)
    {
        return static_cast<double>(raw >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Uniform value in [0, bound) (bound must be nonzero). */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
            below(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return unit(next()) < p; }

    /** Uniform double in [0, 1). */
    double uniform() { return unit(next()); }

    /**
     * Deterministically derive a sub-seed from a parent seed and a
     * stream index (splitmix finalizer). Fault campaigns use this to
     * give every (workload, fault, rate) run an independent,
     * reproducible stream from one campaign seed.
     */
    static uint64_t
    mix(uint64_t seed, uint64_t stream)
    {
        return finalize(seed + Gamma * (stream + 1));
    }

  private:
    /** Gamma^-1 mod 2^64. */
    static constexpr uint64_t GammaInverse = 0xf1de83e19937733dull;
    static_assert(Gamma * GammaInverse == 1);

    /** The splitmix64 output hash. */
    static uint64_t
    finalize(uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t state;
};

} // namespace mssp

#endif // MSSP_SIM_RNG_HH
