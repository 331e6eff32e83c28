/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The paper's figures are grids of independent experiments — every
 * (application × architecture × IRONHIDE options) cell builds a fresh
 * machine inside runExperiment(), so cells share no simulator state and
 * can run concurrently. SweepGrid enumerates such cross products in a
 * canonical order (app-major, then arch, then options), runSweep()
 * fans the jobs out over sweep workers (parallelForIndex) and collects
 * the results in job order regardless of scheduling, and summarize()
 * folds the results into per-architecture geomean/ratio aggregates
 * backed by a StatGroup. sweepToJson() renders them as the
 * machine-readable "sweep/v2" report through the harness/report JSON
 * writer.
 *
 * Determinism contract: results depend only on the job list, never on
 * the worker count or interleaving. A sweep at 1 thread and at N
 * threads produces identical ExperimentResults in identical order
 * (tests/test_sweep.cc holds this invariant), and a failing sweep
 * fails with the same error.
 *
 * Every cell is a pure function of (workload, config, seed), so a
 * failed cell would fail again: a throwing job fails the whole sweep
 * rather than being retried or reported around. Every bench together
 * takes under a minute on four cores (docs/ARCHITECTURE.md, "Sweeps
 * run whole"), so no run needs sharding or resuming.
 */

#ifndef IH_HARNESS_SWEEP_HH
#define IH_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/stats.hh"

namespace ih
{

/** One cell of a sweep: everything runExperiment() needs. */
struct SweepJob
{
    AppSpec app;
    ArchKind arch = ArchKind::IRONHIDE;
    SysConfig cfg;
    IronhideOptions ihopts;
    /** Free-form label threaded through to reports ("rehome x4"…). */
    std::string tag;
};

/**
 * Builder for regular (apps × archs × options) cross-product grids.
 * Irregular grids (e.g. per-job SysConfig overrides) are expressed by
 * constructing the SweepJob vector directly.
 */
class SweepGrid
{
  public:
    SweepGrid &config(const SysConfig &cfg);
    SweepGrid &app(AppSpec app);
    SweepGrid &apps(const std::vector<AppSpec> &apps);
    SweepGrid &arch(ArchKind kind);
    SweepGrid &archs(std::initializer_list<ArchKind> kinds);
    SweepGrid &options(const IronhideOptions &opts, std::string tag = "");

    /**
     * TLB-geometry dimension: one job per associativity in @p ways
     * (0 = fully associative, the paper's model), overriding
     * cfg.tlbWays per job and suffixing the tag with "tlb=fa" /
     * "tlb=<N>way". Never populated = a single pass-through of the
     * base config (no tag suffix).
     */
    SweepGrid &tlbWays(std::initializer_list<unsigned> ways);

    /**
     * TLB-size dimension: one job per entry count in @p entries,
     * overriding cfg.tlbEntries per job and suffixing the tag with
     * "tlbe=<N>". Sits outside the ways dimension in the enumeration
     * (each size expands into every associativity), so a grid with both
     * axes groups the fully-associative reference next to its same-size
     * set-associative variants. Never populated = the base config's
     * size (no tag suffix).
     */
    SweepGrid &tlbEntries(std::initializer_list<unsigned> entries);

    /**
     * Enumerate the grid app-major, then arch, then options, then TLB
     * size, then TLB ways (innermost) — the canonical job order every
     * report uses. Defaults apply when a dimension was never populated:
     * arch IRONHIDE, one default IronhideOptions, the default-validated
     * SysConfig, the base config's TLB geometry.
     */
    std::vector<SweepJob> jobs() const;

  private:
    SysConfig cfg_;
    bool cfgSet_ = false;
    std::vector<AppSpec> apps_;
    std::vector<ArchKind> archs_;
    std::vector<std::pair<IronhideOptions, std::string>> opts_;
    std::vector<unsigned> tlbEntries_;
    std::vector<unsigned> tlbWays_;
};

/** Per-architecture aggregate over a sweep's results. */
struct ArchAggregate
{
    std::string arch;
    std::size_t jobs = 0;
    double geomeanCompletionMs = 0.0;
    double geomeanL1MissRate = 0.0;
    double geomeanL2MissRate = 0.0;
    double meanSecureCores = 0.0;
    Cycle totalPurgeCycles = 0;
    Cycle totalTransitionCycles = 0;
    Cycle totalReconfigCycles = 0;
};

/**
 * Sweep-wide summary. The StatGroup carries the integral aggregates as
 * named counters ("<arch>.jobs", "<arch>.purge_cycles", …) so the
 * sweep plugs into the same stats walkers as the simulator components;
 * the geomean/ratio view lives in the ArchAggregate list.
 */
struct SweepSummary
{
    StatGroup stats{"sweep"};
    /** Ordered by first appearance in the result list. */
    std::vector<ArchAggregate> byArch;

    /** Aggregate for @p arch; nullptr when absent. */
    const ArchAggregate *find(const std::string &arch) const;

    /**
     * Geomean completion-time speedup of @p fast relative to @p slow
     * (e.g. speedup("IRONHIDE", "MI6") ~ 2.1 for the paper's grid).
     * Returns 0 when either side is absent.
     */
    double speedup(const std::string &fast, const std::string &slow) const;
};

/**
 * Run every job on @p threads sweep workers (parallelForIndex) and
 * return the results in job order. A job that throws fails the sweep:
 * the error of the smallest failing job id propagates as a
 * std::runtime_error "job <id> (<app>/<arch>[ <tag>]): <what>",
 * whatever the worker count, and jobs after it may not run.
 */
std::vector<ExperimentResult> runSweep(const std::vector<SweepJob> &jobs,
                                       unsigned threads);

/**
 * The bench driver: the strict argv check (jsonReportPath), then
 * runSweep() at IRONHIDE_THREADS workers. A failing job is fatal()
 * with runSweep's error, before any report is written.
 */
std::vector<ExperimentResult> runBenchSweep(int argc, char **argv,
                                            const std::vector<SweepJob> &jobs);

/**
 * The bench driver for cells that are not SweepJobs: @p cell(i) for
 * every i in [0, @p n) at IRONHIDE_THREADS workers. A throwing cell is
 * fatal() as "cell <i>: <what>" for the lowest failing i, before the
 * caller writes any report.
 */
void runBenchCells(std::size_t n,
                   const std::function<void(std::size_t)> &cell);

/** Fold @p results into per-architecture aggregates. */
SweepSummary summarize(const std::vector<ExperimentResult> &results);

/** Writes cell i's own fields into its report record. */
using CellWriter = std::function<void(JsonWriter &, std::size_t)>;

/**
 * The report envelope every sweep schema shares: "schema", "sweep",
 * "jobs", "complete" (always true: a sweep either runs every cell or
 * fails), then one "results" record per cell. A record holds its
 * canonical "job" id, the fields @p identify writes, "status":"ok",
 * and then @p body's fields. @p tail, when set, appends top-level keys
 * after the results.
 */
std::string sweepReportJson(const char *schema,
                            const std::string &sweep_id, std::size_t cells,
                            const CellWriter &identify,
                            const CellWriter &body,
                            const std::function<void(JsonWriter &)> &tail =
                                nullptr);

/**
 * The "sweep/v2" report: the sweepReportJson() envelope whose records
 * name the app/arch/tag/policy and carry the exact "*_cycles" integers
 * alongside the derived millisecond views, followed by the per-arch
 * summary.
 */
std::string sweepToJson(const std::string &sweep_id,
                        const std::vector<SweepJob> &jobs,
                        const std::vector<ExperimentResult> &results);

/**
 * Path from a "--json <path>" argv pair, nullptr when argv has no
 * arguments. That pair is the only argument a bench takes: anything
 * else, a bare trailing "--json", a second "--json" or an unwritable
 * path is a fatal user error. Benches call this before the sweep so a
 * bad invocation fails fast, not after minutes of runs. The probe
 * never creates the report file.
 */
const char *jsonReportPath(int argc, char **argv);

/**
 * Bench plumbing: when argv carries "--json <path>", write the
 * "sweep/v2" report there and print its path. Returns true when
 * written.
 */
bool maybeWriteJsonReport(int argc, char **argv,
                          const std::string &sweep_id,
                          const std::vector<SweepJob> &jobs,
                          const std::vector<ExperimentResult> &results);

} // namespace ih

#endif // IH_HARNESS_SWEEP_HH
