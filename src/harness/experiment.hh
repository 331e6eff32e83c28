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
    /**
     * Figure 8's oracle: the split with the lowest probe completion
     * over every legal split (ReallocPredictor::optimalSweep). Probes
     * are short runs and can rank splits differently from the full
     * run, so Optimal can lose to the Heuristic on an app (fig8_heuristic
     * at default scale: <ALEXNET, VISION> and <AES, QUERY>). Figure 8's
     * +/-x% rows are FIXED splits offset from this one decision.
     */
    OPTIMAL,
    FIXED,         ///< a caller-specified split
    STATIC_HALF,   ///< stay at the initial 32/32 (no reconfiguration)
};

/** Extra knobs for IRONHIDE runs. */
struct IronhideOptions
{
    SplitPolicy policy = SplitPolicy::HEURISTIC;
    unsigned fixedSplit = 0;       ///< used by FIXED
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
 * Each probe is a complete short simulation on a fresh machine, run on
 * the calling thread. The trailing unsigned is ignored: perfbench/
 * still passes effectiveDomains() there. Both go in ROADMAP item 12.3's
 * benchmark change, as SysConfig::engine does.
 */
ReallocPredictor::Decision
decideSplit(const AppSpec &spec, const SysConfig &cfg, SplitPolicy policy,
            std::uint64_t probe_interactions, unsigned = 1);

/** Always 1, the one probe worker; only perfbench/ calls it (see
 *  decideSplit()). */
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
