/**
 * @file
 * The core re-allocation predictor.
 *
 * The secure kernel must pick, once per interactive-application
 * invocation, how many cores (with their L1/TLB/L2-slice resources) the
 * secure cluster gets. The predictor treats predicted completion time as
 * a function f(s) of the secure core count s and searches it:
 *
 *  - gradientSearch(): the paper's gradient-based heuristic. Starting
 *    from the initial 32/32 binding it probes the finite-difference
 *    gradient with a geometric step, walks downhill while improving, and
 *    halves the step until it converges. Each probe is a short profiled
 *    execution; the decision reports how many it took.
 *  - optimalSweep(): the paper's "Optimal": exhaustively evaluates every
 *    split (an oracle, for Figure 8).
 *  - withVariation(): the fixed ±x% decision variations of Figure 8.
 *
 * The predictor is decoupled from the workload layer through the probe
 * callback, so it is unit-testable against analytic functions.
 */

#ifndef IH_CORE_REALLOC_PREDICTOR_HH
#define IH_CORE_REALLOC_PREDICTOR_HH

#include <functional>

namespace ih
{

/** Searches the secure-cluster core-count binding. */
class ReallocPredictor
{
  public:
    /** Predicted completion time for a given secure core count. */
    using ProbeFn = std::function<double(unsigned secure_cores)>;

    /** Outcome of a search. */
    struct Decision
    {
        unsigned secureCores = 0;
        unsigned probes = 0;     ///< number of probe evaluations
        double predicted = 0.0;  ///< f(secureCores) as probed
    };

    /**
     * @param min_secure  smallest legal secure core count
     * @param max_secure  largest legal secure core count
     */
    ReallocPredictor(unsigned min_secure, unsigned max_secure);

    /**
     * Gradient-based hill climb from @p start. The walk re-crosses
     * splits it has already probed, so each split reaches @p probe
     * once; Decision::probes still counts every evaluation.
     */
    Decision gradientSearch(unsigned start, const ProbeFn &probe) const;

    /** Exhaustive oracle sweep. */
    Decision optimalSweep(const ProbeFn &probe) const;

    /**
     * Perturb @p decision by @p pct percent of the machine's cores
     * (positive: grant the secure cluster more cores; negative: take
     * cores away), clamped to the legal range.
     */
    unsigned withVariation(unsigned decision, int pct,
                           unsigned total_cores) const;

  private:
    unsigned clamp(long s) const;

    unsigned minSecure_;
    unsigned maxSecure_;
};

} // namespace ih

#endif // IH_CORE_REALLOC_PREDICTOR_HH
