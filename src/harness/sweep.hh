/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The paper's figures are grids of independent experiments — every
 * (application × architecture × IRONHIDE options) cell builds a fresh
 * machine inside runExperiment(), so cells share no simulator state and
 * can run concurrently. SweepGrid enumerates such cross products in a
 * canonical order (app-major, then arch, then options),
 * runFaultTolerantSweep() fans the jobs out over opts.threads sweep
 * workers (parallelForIndex) and collects the results in job order
 * regardless of scheduling, and summarize() folds the results into
 * per-architecture geomean/ratio aggregates backed by a StatGroup.
 * sweepToJson() renders the outcome as the machine-readable "sweep/v2"
 * report through the harness/report JSON writer.
 *
 * Determinism contract: results depend only on the job list, never on
 * the worker count or interleaving. A sweep at 1 thread and at N
 * threads produces identical ExperimentResults in identical order
 * (tests/test_sweep.cc holds this invariant).
 *
 * There is one sweep path, and it is fault-tolerant. Its core
 * (runFaultTolerantPayloadSweep) runs jobs whose results are opaque
 * payload strings: deterministic IRONHIDE_SHARD=i/N job partitioning;
 * an opt-in --isolate supervisor (harness/isolate) that contains
 * crashes/hangs to single FAILED or TIMEOUT cells; a --journal
 * crash-safe resume log (harness/journal); --merge, a resume from the
 * union of the shard journals that reports byte-identically to an
 * unsharded run; and degraded-but-honest reporting — summaries over
 * the surviving cells, failed cells listed by canonical id, and a
 * distinct exit code (kExitDegraded) so automation can tell "all
 * cells" from "most cells". It has two clients: the experiment codec
 * ("ihres1") behind runFaultTolerantSweep/runBenchSweep, and the
 * serving bench's ladder codec ("ihserve1").
 */

#ifndef IH_HARNESS_SWEEP_HH
#define IH_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/isolate.hh"
#include "harness/journal.hh"
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

// --------------------------------------------------------------------------
// Fault-tolerant sweeps (sharding, isolation, journaled resume)
// --------------------------------------------------------------------------

/** Exit code of a sweep that finished with failed/timed-out cells:
 *  distinct from 0 (complete) and from 1 (the sweep itself died). */
constexpr int kExitDegraded = 65;

/** Terminal state of one sweep cell. */
enum class CellStatus : std::uint8_t
{
    OK = 0,  ///< result is valid ("ok", or "retried" when attempts > 1)
    FAILED,  ///< crashed / threw / determinism violation — no result
    TIMEOUT, ///< exceeded the per-job wall timeout — no result
    SKIPPED, ///< owned by another shard — not attempted here
};

/** JSON/status-line spelling of (@p status, @p attempts). */
const char *cellStatusName(CellStatus status, unsigned attempts);

struct CellOutcome
{
    CellStatus status = CellStatus::OK;
    unsigned attempts = 1;
    std::string error; ///< deterministic text for FAILED/TIMEOUT

    bool ok() const { return status == CellStatus::OK; }
};

/**
 * Knobs of one fault-tolerant sweep invocation, resolved from argv
 * (--isolate, --journal <path>, --merge <journal>...) and the
 * environment (IRONHIDE_THREADS, IRONHIDE_SHARD,
 * IRONHIDE_JOB_TIMEOUT_MS, IRONHIDE_JOB_RETRIES) by sweepRunFromArgs().
 */
struct SweepRunOptions
{
    unsigned threads = 1;        ///< inline workers / isolated children
    bool isolate = false;        ///< fork each job into a child
    std::string journalPath;     ///< crash-safe resume log; "" = none
    ShardSpec shard;             ///< this process's job partition
    std::uint64_t timeoutMs = 0; ///< per-job wall timeout (isolate only)
    unsigned retries = 1;        ///< extra attempts per failed job
    /** Shard journals whose union holds every cell; empty = run. */
    std::vector<std::string> mergePaths;
};

/** IRONHIDE_SHARD as a ShardSpec. Unset = the whole sweep; a malformed
 *  value is fatal() — silently running every job on what the operator
 *  believes is one shard of N wastes the whole fleet's work. */
ShardSpec sweepShard();

/** Resolve SweepRunOptions from argv + environment (fatal on
 *  malformed flags, e.g. a bare trailing "--journal"). --merge takes
 *  every following argument up to the next "--" flag. */
SweepRunOptions sweepRunFromArgs(int argc, char **argv);

/**
 * The cell bookkeeping every fault-tolerant sweep outcome carries:
 * one CellOutcome per canonical job, the shard that ran them, and how
 * many were satisfied from the journal.
 */
struct SweepCells
{
    std::vector<CellOutcome> cells;
    ShardSpec shard;
    std::size_t resumed = 0; ///< cells satisfied from journals

    bool sharded() const { return shard.active(); }
    /** Cells this shard owns (everything not SKIPPED). */
    std::size_t shardJobs() const;
    /** Did every owned cell finish OK? */
    bool complete() const;
    /** Canonical ids of owned FAILED/TIMEOUT cells, ascending. */
    std::vector<std::size_t> failedCells() const;
    /** 0 when complete, kExitDegraded otherwise. */
    int exitCode() const { return complete() ? 0 : kExitDegraded; }
};

/**
 * One opaque payload string per canonical job, parallel to the cell
 * outcomes. A payload is meaningful only when its cell is OK.
 */
struct PayloadOutcome : SweepCells
{
    std::vector<std::string> payloads;
};

/**
 * An experiment sweep's outcome: results are parallel to the job list;
 * a cell's result is meaningful only when its outcome is OK.
 */
struct SweepOutcome : SweepCells
{
    std::vector<ExperimentResult> results;
};

/**
 * The generic core of the fault-tolerant sweep path: shard
 * partitioning, journaled resume, inline-or-isolated execution and
 * fault injection over @p jobs cells whose results are caller-defined
 * payload strings. @p fn computes job i's payload, @p validate
 * recognizes a complete well-formed payload (journal records and
 * child pipes are vetted with it), and @p perturb builds the NONDET
 * fault's complete-but-wrong attempt-1 payload (it must still pass
 * @p validate — see superviseRawJobs). runFaultTolerantSweep() is
 * this instantiated with the experiment wire format; drivers with
 * their own schema (the serving bench's load ladders) reach it through
 * runBenchPayloadSweep() and keep shard/--journal/--isolate/--merge
 * for free.
 *
 * With opts.mergePaths set it runs nothing: every cell comes from the
 * union of those journals (PayloadJournal::load), exactly as a resume
 * in which every job is already complete. A job in two journals or in
 * none, a journal of another sweep or job count, and --merge with a
 * shard or --journal all throw JournalError.
 */
PayloadOutcome runFaultTolerantPayloadSweep(
    const std::string &sweep_id, std::size_t jobs,
    const std::function<std::string(std::size_t)> &fn,
    const PayloadJournal::Validator &validate,
    const std::function<std::string(const std::string &)> &perturb,
    const SweepRunOptions &opts, const FaultPlan &faults);

/**
 * Run @p jobs under @p opts: skip cells other shards own, satisfy
 * journaled (or merged) cells without re-running them, execute the
 * rest inline (exceptions caught per cell) or under the --isolate
 * supervisor (crashes/hangs/timeouts contained per cell), applying
 * @p faults.
 * Completed cells are appended to the journal as they finish. Throws
 * JournalError per the journal's corruption contract. This is
 * runFaultTolerantPayloadSweep() over the experiment wire format.
 */
SweepOutcome runFaultTolerantSweep(const std::string &sweep_id,
                                   const std::vector<SweepJob> &jobs,
                                   const SweepRunOptions &opts,
                                   const FaultPlan &faults);

/**
 * The bench driver: fail-fast --json probe, options from argv/env,
 * faults from IH_FAULT_INJECT, runFaultTolerantPayloadSweep, then the
 * shard / resume / per-failed-cell status lines every bench prints the
 * same way (@p label names failed cell i: "app/arch tag"). A
 * JournalError — a damaged journal or a bad --merge set — is fatal().
 */
PayloadOutcome runBenchPayloadSweep(
    int argc, char **argv, const std::string &sweep_id, std::size_t jobs,
    const std::function<std::string(std::size_t)> &fn,
    const PayloadJournal::Validator &validate,
    const std::function<std::string(const std::string &)> &perturb,
    const std::function<std::string(std::size_t)> &label);

/**
 * runBenchPayloadSweep() over the experiment codec. Benches render
 * their tables from the returned outcome (full tables only when
 * complete and unsharded) and exit with exitCode().
 */
SweepOutcome runBenchSweep(int argc, char **argv,
                           const std::string &sweep_id,
                           const std::vector<SweepJob> &jobs);

/** Fold only the OK cells of @p o into aggregates — the degraded-sweep
 *  summary is honest about covering survivors only. */
SweepSummary summarize(const SweepOutcome &o);

/** Writes cell i's own fields into its report record. */
using CellWriter = std::function<void(JsonWriter &, std::size_t)>;

/**
 * The report envelope every sweep schema shares: "schema", "sweep",
 * "jobs", "shard"/"shard_jobs" when sharded, "complete", and
 * "failed_cells" when non-empty, then one "results" record per cell
 * this shard attempted (SKIPPED cells are omitted). A record holds its
 * canonical "job" id, the fields @p identify writes, the "status"
 * ("ok"/"retried"/"failed"/"timeout"), "attempts" when more than one,
 * and then @p body's fields for OK cells or the deterministic "error"
 * text for failed ones. @p tail, when set, appends top-level keys
 * after the results.
 */
std::string sweepReportJson(const char *schema,
                            const std::string &sweep_id,
                            const SweepCells &o,
                            const CellWriter &identify,
                            const CellWriter &body,
                            const std::function<void(JsonWriter &)> &tail =
                                nullptr);

/**
 * The "sweep/v2" report: the sweepReportJson() envelope whose records
 * name the app/arch/tag/policy and carry the exact "*_cycles" integers
 * alongside the derived millisecond views, followed by the per-arch
 * summary of the OK cells. A complete unsharded outcome and a --merge
 * of complete shard journals render byte-identically.
 */
std::string sweepToJson(const std::string &sweep_id,
                        const std::vector<SweepJob> &jobs,
                        const SweepOutcome &outcome);

/**
 * Path from a "--json <path>" argv pair, nullptr when absent. A bare
 * trailing "--json" or an unwritable path is a fatal user error —
 * benches call this before the sweep so a bad invocation fails fast,
 * not after minutes of runs. The probe never creates the report file.
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
                          const SweepOutcome &outcome);

} // namespace ih

#endif // IH_HARNESS_SWEEP_HH
