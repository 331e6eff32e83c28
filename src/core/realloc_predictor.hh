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
#include <vector>

namespace ih
{

/** Searches the secure-cluster core-count binding. */
class ReallocPredictor
{
  public:
    /** Predicted completion time for a given secure core count. */
    using ProbeFn = std::function<double(unsigned secure_cores)>;

    /**
     * Advisory batch hint: splits the search may probe next, ordered
     * most-likely-first. A caller with idle domain workers can
     * evaluate (and memoize) a prefix of the batch concurrently — the
     * likelihood order lets it cap speculative waste at its worker
     * count — so the subsequent ProbeFn calls return instantly.
     * Purely an optimization channel: the search consults only ProbeFn
     * for values and takes every decision in the same order with or
     * without a prefetcher, so the Decision is bit-identical (probe
     * counts included: speculative evaluations are never counted, only
     * the algorithmic ProbeFn calls are).
     */
    using PrefetchFn = std::function<void(const std::vector<unsigned> &)>;

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
     * Gradient-based hill climb from @p start. Before each probe the
     * candidates reachable in the next step or two are announced
     * through @p prefetch (nullptr = no hints; the decision is the
     * same either way).
     */
    Decision gradientSearch(unsigned start, const ProbeFn &probe,
                            const PrefetchFn &prefetch = nullptr) const;

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
