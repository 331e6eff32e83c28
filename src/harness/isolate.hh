/**
 * @file
 * Crash/hang isolation for sweep jobs + deterministic fault injection.
 *
 * superviseRawJobs() is an opt-in (--isolate) supervisor: each job runs
 * in a forked child with a per-job wall timeout and bounded retries,
 * so a segfault, abort or hang marks that one cell FAILED/TIMEOUT
 * instead of killing the whole sweep — the failure mode preemptible
 * fleets and long grids actually hit. The supervisor itself is
 * single-threaded (children are the concurrency), so forking is safe
 * regardless of what the jobs allocate; a child ships its payload back
 * through a pipe and the parent validates and checksums it.
 * Determinism is a gated invariant, not a hope: when a retry
 * produces a payload whose checksum differs from any complete payload
 * an earlier attempt produced, the cell is FAILED with a determinism
 * violation — a flaky pass is worse than an honest failure.
 *
 * IH_FAULT_INJECT makes every failure path deterministically testable:
 * a comma-separated list of "job:<id>:<fault>" specs applied by job's
 * canonical id, with faults
 *   crash        — raise SIGSEGV before the job runs
 *   hang_ms:<N>  — sleep N ms before the job runs (trips the timeout)
 *   fail         — throw a std::runtime_error("injected failure")
 *   kill         — _exit(37): under --isolate kills only the child;
 *                  inline it kills the whole sweep (the CI
 *                  kill-then-resume leg uses exactly this)
 *   nondet       — attempt 1 emits a perturbed payload then dies, so
 *                  the retry's checksum mismatches (exercises the
 *                  determinism gate); inline (no retries) it is inert
 */

#ifndef IH_HARNESS_ISOLATE_HH
#define IH_HARNESS_ISOLATE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/journal.hh"

namespace ih
{

/** Fault kinds IH_FAULT_INJECT can inject (see file comment). */
enum class FaultKind : std::uint8_t
{
    NONE = 0,
    CRASH,
    HANG_MS,
    FAIL,
    KILL,
    NONDET,
};

struct FaultSpec
{
    FaultKind kind = FaultKind::NONE;
    std::uint64_t ms = 0; ///< HANG_MS sleep length
};

/** Parsed IH_FAULT_INJECT plan, keyed by canonical job id. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse "job:<id>:<fault>[,...]"; throws std::runtime_error on
     * anything malformed (a fault plan is a test harness — a typo'd
     * spec silently injecting nothing would fake robustness).
     */
    static FaultPlan parse(const std::string &spec);

    /** parse() over IH_FAULT_INJECT; malformed is fatal(). */
    static FaultPlan fromEnv();

    FaultSpec at(std::size_t job) const;
    bool empty() const { return faults_.empty(); }

  private:
    std::map<std::size_t, FaultSpec> faults_;
};

/**
 * Apply @p fault in the executing context (the forked child under
 * --isolate, the worker thread inline). CRASH raises SIGSEGV, KILL
 * _exit(37)s, HANG_MS sleeps, FAIL throws; NONDET is handled by the
 * supervisor's child protocol and is inert here.
 */
void triggerFault(const FaultSpec &fault);

/** Supervisor knobs (resolved from env by the sweep layer). */
struct IsolateConfig
{
    unsigned workers = 1;        ///< children in flight at once
    std::uint64_t timeoutMs = 0; ///< per-job wall timeout; 0 = none
    unsigned retries = 1;        ///< extra attempts after a failure
};

/** Terminal outcome of one supervised raw-payload cell. */
struct RawIsolatedCell
{
    bool ok = false;
    bool timedOut = false;
    unsigned attempts = 0;
    std::string error;   ///< deterministic failure text
    std::string payload; ///< passes the validator when ok
};

/**
 * Run @p fn(jobIds[i]) for every i, each attempt in a forked child
 * under @p cfg's timeout/retry policy, applying @p faults by job id.
 * @p fn returns job i's payload, @p validate says whether a drained
 * pipe buffer is one complete well-formed payload, and @p perturb
 * builds the complete-but-wrong payload the NONDET fault emits on
 * attempt 1. A perturbed payload MUST still pass @p validate — an
 * undecodable perturbation would never have its checksum recorded, and
 * the determinism gate NONDET exists to trip would stay silent.
 * Returns one RawIsolatedCell per input, in input order. @p onDone
 * fires in the supervisor thread as each cell reaches a terminal state
 * (for journaling), in completion order. Must be called from a process
 * that is not running other threads (the sweep layer guarantees this:
 * --isolate replaces the thread pool, children are the parallelism).
 */
std::vector<RawIsolatedCell>
superviseRawJobs(const std::vector<std::size_t> &jobIds,
                 const std::function<std::string(std::size_t)> &fn,
                 const PayloadJournal::Validator &validate,
                 const std::function<std::string(const std::string &)>
                     &perturb,
                 const IsolateConfig &cfg, const FaultPlan &faults,
                 const std::function<void(std::size_t idx,
                                          const RawIsolatedCell &)> &onDone);

} // namespace ih

#endif // IH_HARNESS_ISOLATE_HH
