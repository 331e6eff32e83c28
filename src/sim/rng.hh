/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * Everything in the repository that needs randomness takes an explicit
 * Rng so runs are reproducible from a single seed. The generator is
 * xoshiro256**, which is fast and has no observable artifacts at the
 * scales we use. A Zipfian sampler is provided for the YCSB-like query
 * and key-value workloads.
 */

#ifndef IH_SIM_RNG_HH
#define IH_SIM_RNG_HH

#include <cstdint>
#include <vector>

namespace ih
{

/** xoshiro256** pseudo random generator with convenience samplers. */
class Rng
{
  public:
    /** Seed via splitmix64 so any 64-bit seed yields a good state. */
    explicit Rng(std::uint64_t seed = 0x1234abcdULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t nextRange(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextBetween(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p);

    /**
     * Exponential draw with mean @p mean (> 0) via inverse transform;
     * the inter-arrival sampler of the Poisson arrival process in
     * harness/arrival. Deterministic given the generator state.
     */
    double nextExponential(double mean);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextRange(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t state_[4];
};

/**
 * Zipfian sampler over [0, n) with skew theta, using the Gray/YCSB
 * rejection-free inverse method. Deterministic given the Rng.
 */
class ZipfSampler
{
  public:
    /**
     * @param n      population size (> 0)
     * @param theta  skew in (0, 1); YCSB default is 0.99
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one item; hot items are the small indices. */
    std::uint64_t sample(Rng &rng) const;

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;

    static double zeta(std::uint64_t n, double theta);
};

} // namespace ih

#endif // IH_SIM_RNG_HH
