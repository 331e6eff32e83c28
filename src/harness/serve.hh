/**
 * @file
 * Open-loop serving sweeps: latency percentiles under enclave churn.
 *
 * Where the closed-loop benches measure one application's completion
 * time, the serving harness measures what a secure machine does under
 * *traffic*: a seeded stochastic arrival process (harness/arrival)
 * injects sessions into a long-lived SessionServer (core), each
 * arrival spawning an enclave invocation — secure slice allocation,
 * reconfiguration decision, interactions, teardown scrub — so the
 * secure cluster churns continuously. runOpenLoop() turns one
 * (architecture, offered load) cell into exact session-latency
 * percentiles (harness/percentile — a sorted reservoir, no sketches),
 * goodput and queue behavior; runLoadLadder() escalates the offered
 * load geometrically and stops at saturation: once the queue depth
 * diverges or goodput flattens there is nothing left to learn from
 * hotter cells, and IRONHIDE_MAX_LOAD_STEPS bounds the ladder
 * unconditionally.
 *
 * Everything here is simulated-time arithmetic over deterministic
 * schedules: a ladder is a pure function of (arch, config, apps,
 * options), byte-identical at any IRONHIDE_THREADS/IRONHIDE_DOMAINS
 * setting. Ladders serialize to a pipe-separated wire payload
 * ("ihserve1|...") so bench/serve_openloop rides the generic
 * fault-tolerance layer (shard, --journal, --isolate) unchanged.
 */

#ifndef IH_HARNESS_SERVE_HH
#define IH_HARNESS_SERVE_HH

#include <string>
#include <vector>

#include "harness/arrival.hh"
#include "workloads/interactive_app.hh"

namespace ih
{

/** Per-session knobs of one serving run. */
struct ServeOptions
{
    /** Sessions injected per cell (> 0). */
    std::uint64_t sessions = 64;
    /** Interactions per session (the session "length"). */
    std::uint64_t interactionsPerSession = 4;
    /** Arrival-process seed. Sessions draw uniformly over the apps. */
    std::uint64_t seed = 0xC0FFEE;
    /** Per-app IRONHIDE split targets (see SessionOptions::splits). */
    std::vector<unsigned> splits;
};

/** Measured outcome of one (architecture, offered load) cell. */
struct ServeCellResult
{
    double offeredPerSec = 0.0;   ///< λ this cell was driven at
    std::uint64_t sessions = 0;   ///< sessions injected (and served)
    Cycle makespan = 0;           ///< last session's finish cycle
    // Exact session-latency distribution (finish - arrival, cycles).
    Cycle p50 = 0;
    Cycle p99 = 0;
    Cycle p999 = 0;
    Cycle maxLatency = 0;
    double meanLatency = 0.0;
    /** Sessions completed per simulated second. */
    double goodputPerSec = 0.0;
    /** Peak sessions in the system (queued + in service). */
    std::uint64_t maxQueueDepth = 0;
    // Enclave-churn event counts and overhead cycles over the cell.
    std::uint64_t reconfigEvents = 0;   ///< IRONHIDE cluster rebinds
    std::uint64_t appSwitchPurges = 0;  ///< distrusting-arrival scrubs
    std::uint64_t transitions = 0;      ///< enclave entry+exit events
    Cycle purgeCycles = 0;
    Cycle transitionCycles = 0;
    Cycle reconfigCycles = 0;
};

/**
 * Serve @p opts.sessions arrivals drawn at @p lambdaPerSec into a
 * fresh machine under @p kind. Pure: identical inputs yield an
 * identical cell at any host parallelism.
 */
ServeCellResult runOpenLoop(ArchKind kind, const SysConfig &cfg,
                            const std::vector<AppSpec> &apps,
                            double lambdaPerSec,
                            const ServeOptions &opts);

/** Why a load ladder stopped escalating. */
constexpr const char *kStopMaxSteps = "max_steps";
constexpr const char *kStopQueueDiverged = "queue_diverged";
constexpr const char *kStopGoodputFlattened = "goodput_flattened";

/** Knobs of one offered-load escalation. */
struct LoadLadderOptions
{
    /**
     * First rung's offered load; 0 = calibrate: serve one session per
     * app back-to-back on an INSECURE machine (arch-independent, so
     * every architecture's ladder runs the same absolute loads and
     * the curves compare) and start at 1/4 of that service rate.
     */
    double lambda0 = 0.0;
    /**
     * Calibrate the lambda0 = 0 origin on the architecture under test
     * instead of the pinned INSECURE machine (IRONHIDE_SERVE_CALIB=
     * per-arch). Each architecture's ladder then starts at the same
     * *relative* distance below its own knee — the right origin when
     * studying one architecture's saturation shape — at the cost of
     * the cross-architecture curves no longer sharing absolute loads.
     */
    bool perArchCalib = false;
    /** Hard rung bound (IRONHIDE_MAX_LOAD_STEPS; >= 1). */
    unsigned maxSteps = 6;
    ServeOptions serve;
};

/** One architecture's goodput-vs-offered-load curve. */
struct LoadLadderResult
{
    std::string arch;
    std::vector<ServeCellResult> steps;
    std::string stopReason; ///< one of the kStop* strings
};

/**
 * Escalate offered load under @p opts, doubling it per rung, until
 * saturation or the rung bound. At least one rung always runs.
 */
LoadLadderResult runLoadLadder(ArchKind kind, const SysConfig &cfg,
                               const std::vector<AppSpec> &apps,
                               const LoadLadderOptions &opts);

/**
 * Exact text serialization of one ladder ("ihserve1|..."): integers
 * verbatim, doubles via %.17g — the round trip reproduces every field
 * bit-for-bit, so journaled/isolated serving sweeps report
 * byte-identically to inline ones.
 */
std::string serializeLadder(const LoadLadderResult &r);

/** Inverse of serializeLadder(); false on any malformed payload. */
bool deserializeLadder(const std::string &payload, LoadLadderResult &r);

/** Rung bound from IRONHIDE_MAX_LOAD_STEPS (strict parse, default 6,
 *  clamped to >= 1). */
unsigned maxLoadSteps();

} // namespace ih

#endif // IH_HARNESS_SERVE_HH
