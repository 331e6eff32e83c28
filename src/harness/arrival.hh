/**
 * @file
 * Seeded stochastic session-arrival schedules for open-loop serving.
 *
 * An ArrivalProcess turns (rate, mix, seed) into the complete arrival
 * schedule up front: one pass of a private Rng draws every
 * inter-arrival gap and every app choice in a fixed order, so the
 * schedule is a pure function of the ArrivalConfig. Nothing about it
 * consults worker counts, wall clocks or global state — the same
 * config yields the same schedule at any IRONHIDE_THREADS setting,
 * which is what lets the serving reports stay byte-identical under
 * host parallelism (tests/test_serve.cc pins this).
 */

#ifndef IH_HARNESS_ARRIVAL_HH
#define IH_HARNESS_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace ih
{

/** One session arrival. */
struct Arrival
{
    Cycle cycle = 0;          ///< arrival time (simulated cycles)
    std::size_t appIndex = 0; ///< index into the session mix

    bool operator==(const Arrival &o) const
    {
        return cycle == o.cycle && appIndex == o.appIndex;
    }
};

/** Everything that determines an arrival schedule. Inter-arrival gaps
 *  are exponential: a Poisson process, the memoryless open queue. */
struct ArrivalConfig
{
    /** Offered load in sessions per simulated second (> 0). */
    double lambdaPerSec = 100.0;
    /** Sessions to generate (> 0). */
    std::uint64_t sessions = 64;
    /**
     * Relative weight per app in the mix (size = app count, >= 1
     * entry; zero-weight apps are never drawn, an all-zero mix is a
     * caller bug). An empty vector means a single-app mix.
     */
    std::vector<double> mix;
    std::uint64_t seed = 0xC0FFEE;
};

/** Deterministic generator over one ArrivalConfig. */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(ArrivalConfig cfg);

    /**
     * The full schedule: @c cfg.sessions arrivals with nondecreasing
     * cycles, each carrying its drawn app index. Two calls (on this or
     * an identically configured process) return identical vectors.
     */
    std::vector<Arrival> schedule() const;

    const ArrivalConfig &config() const { return cfg_; }

  private:
    ArrivalConfig cfg_;
};

} // namespace ih

#endif // IH_HARNESS_ARRIVAL_HH
