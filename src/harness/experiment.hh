/**
 * @file
 * Experiment runner: builds a fresh machine per (application,
 * architecture) pair, executes the run protocol of the paper's
 * methodology (warmup, then a timed region; for IRONHIDE the cluster
 * binding is decided and one reconfiguration charged), and returns the
 * measured RunResult. All benches and several integration tests sit on
 * top of this.
 */

#ifndef IH_HARNESS_EXPERIMENT_HH
#define IH_HARNESS_EXPERIMENT_HH

#include <string>

#include "core/realloc_predictor.hh"
#include "core/security_model.hh"
#include "workloads/interactive_app.hh"

namespace ih
{

/** How IRONHIDE's cluster binding is chosen. */
enum class SplitPolicy : std::uint8_t
{
    HEURISTIC = 0, ///< gradient search (the paper's predictor)
    OPTIMAL,       ///< exhaustive oracle sweep, no charged overhead
    FIXED,         ///< a caller-specified split
    STATIC_HALF,   ///< stay at the initial 32/32 (no reconfiguration)
};

/** Extra knobs for IRONHIDE runs. */
struct IronhideOptions
{
    SplitPolicy policy = SplitPolicy::HEURISTIC;
    unsigned fixedSplit = 0;       ///< used by FIXED
    int variationPct = 0;          ///< Figure 8's +/-x% perturbation
    std::uint64_t probeInteractions = 4;
};

/** Outcome of one experiment. */
struct ExperimentResult
{
    std::string app;
    std::string arch;
    RunResult run;
    unsigned decidedSplit = 0;  ///< secure cores chosen (IRONHIDE)
    unsigned probes = 0;        ///< predictor probe evaluations
};

/**
 * Decide the secure-cluster split for @p spec via probe runs.
 *
 * Each probe is a complete short simulation on a fresh machine, so
 * probes at distinct splits are independent and pure. @p domains > 1
 * evaluates them on that many host workers (speculatively, one search
 * step ahead), memoized so the search itself consumes every value in
 * its canonical serial order: the returned Decision — probe count
 * included — is bit-identical at any domain count
 * (tests/test_domains.cc pins this).
 */
ReallocPredictor::Decision
decideSplit(const AppSpec &spec, const SysConfig &cfg, SplitPolicy policy,
            std::uint64_t probe_interactions, unsigned domains = 1);

/**
 * Intra-run worker count in effect: the IRONHIDE_DOMAINS knob
 * (knobWorkers: default 1, 0 = hardware concurrency, at most 256). The
 * config parameter is unused; it stays for perfbench/, which calls
 * this. The knob trades host wall time only — simulated results are
 * byte-identical at every value. Note the knobs multiply:
 * IRONHIDE_THREADS sweep workers each run their jobs' probe pools at
 * this count, so threads x domains concurrent simulations can exist at
 * once; size the product to the host (the perf_smoke legs keep threads
 * at 1 for exactly this reason).
 */
unsigned effectiveDomains(const SysConfig &cfg);

/** Run @p spec under architecture @p kind on a fresh machine. */
ExperimentResult runExperiment(const AppSpec &spec, ArchKind kind,
                               const SysConfig &cfg,
                               const IronhideOptions &ihopts = {});

/** Benchmark-wide scale factor from the IRONHIDE_SCALE env var (1.0
 *  default); benches multiply their workload sizes by this. */
double benchScale();

/** The machine configuration used by all benches. */
SysConfig benchConfig();

} // namespace ih

#endif // IH_HARNESS_EXPERIMENT_HH
