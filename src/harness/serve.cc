#include "harness/serve.hh"

#include <algorithm>
#include <cmath>

#include "core/session_server.hh"
#include "harness/percentile.hh"
#include "harness/report.hh"
#include "sim/log.hh"

namespace ih
{

ServeCellResult
runOpenLoop(ArchKind kind, const SysConfig &cfg,
            const std::vector<AppSpec> &apps, double lambdaPerSec,
            const ServeOptions &opts)
{
    IH_ASSERT(!apps.empty(), "serving needs at least one app");
    IH_ASSERT(opts.sessions > 0, "serving needs at least one session");

    ArrivalConfig acfg;
    acfg.lambdaPerSec = lambdaPerSec;
    acfg.sessions = opts.sessions;
    acfg.seed = opts.seed;
    acfg.mix = std::vector<double>(apps.size(), 1.0);
    const std::vector<Arrival> schedule =
        ArrivalProcess(acfg).schedule();

    SessionOptions sopts;
    sopts.interactionsPerSession = opts.interactionsPerSession;
    sopts.splits = opts.splits;
    SessionServer server(cfg, kind, apps, sopts);

    PercentileAccumulator lat;
    std::vector<Cycle> finishes;
    finishes.reserve(schedule.size());
    std::uint64_t maxDepth = 0;
    std::size_t drained = 0; // finishes known to be <= this arrival
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Arrival &a = schedule[i];
        // Queue depth seen by this arrival: everyone who arrived
        // before it and has not finished by its arrival cycle, plus
        // itself. Arrivals and FIFO finishes are both monotone, so a
        // single pointer walks the finish list exactly once.
        while (drained < finishes.size() &&
               finishes[drained] <= a.cycle)
            ++drained;
        maxDepth = std::max<std::uint64_t>(maxDepth,
                                           i - drained + 1);
        const Cycle finish = server.serve(a.appIndex, a.cycle);
        finishes.push_back(finish);
        lat.add(finish - a.cycle);
    }

    ServeCellResult out;
    out.offeredPerSec = lambdaPerSec;
    out.sessions = server.sessionsServed();
    out.makespan = server.busyUntil();
    out.p50 = lat.quantile(0.50);
    out.p99 = lat.quantile(0.99);
    out.p999 = lat.quantile(0.999);
    out.maxLatency = lat.max();
    out.meanLatency = lat.mean();
    // 1 cycle = 1 ns: sessions per simulated second of makespan.
    out.goodputPerSec =
        out.makespan == 0
            ? 0.0
            : static_cast<double>(out.sessions) * 1e9 /
                  static_cast<double>(out.makespan);
    out.maxQueueDepth = maxDepth;
    out.reconfigEvents = server.reconfigEvents();
    out.appSwitchPurges = server.appSwitchPurges();
    out.transitions = server.model().transitions();
    out.purgeCycles = server.model().purgeOverhead();
    out.transitionCycles = server.model().transitionOverhead();
    out.reconfigCycles = server.model().reconfigOverhead();
    return out;
}

namespace
{

/** Geometric escalation factor between rungs. */
constexpr double kLadderGrowth = 2.0;

/** Saturation: stop once a rung's goodput gain over the previous rung
 *  falls below this fraction — more load is no longer buying
 *  throughput, only latency. */
constexpr double kFlattenPct = 0.05;

/** Base load from one back-to-back session per app on an INSECURE
 *  machine: the origin is arch-independent, so every architecture's
 *  curve runs the same absolute loads. */
double
calibratedLambda0(const SysConfig &cfg, const std::vector<AppSpec> &apps,
                  const ServeOptions &opts)
{
    SessionOptions sopts;
    sopts.interactionsPerSession = opts.interactionsPerSession;
    SessionServer server(cfg, ArchKind::INSECURE, apps, sopts);
    for (std::size_t i = 0; i < apps.size(); ++i)
        server.serve(i, 0);
    const double meanService =
        static_cast<double>(server.busyUntil()) /
        static_cast<double>(apps.size());
    IH_ASSERT(meanService > 0.0, "calibration served zero cycles");
    // Start at a quarter of the unloaded service rate: comfortably
    // below the knee, so the ladder walks through it.
    return 0.25 * 1e9 / meanService;
}

} // namespace

LoadLadderResult
runLoadLadder(ArchKind kind, const SysConfig &cfg,
              const std::vector<AppSpec> &apps,
              const LoadLadderOptions &opts)
{
    IH_ASSERT(opts.maxSteps >= 1, "a ladder needs at least one rung");

    LoadLadderResult out;
    out.arch = archName(kind);
    out.stopReason = kStopMaxSteps;

    const double lambda0 = opts.lambda0 > 0.0
                               ? opts.lambda0
                               : calibratedLambda0(cfg, apps, opts.serve);
    // Saturation: stop once a rung's peak queue depth reaches half the
    // session count — the open queue is diverging.
    const std::uint64_t depthLimit =
        std::max<std::uint64_t>(2, opts.serve.sessions / 2);

    double lambda = lambda0;
    for (unsigned step = 0; step < opts.maxSteps; ++step) {
        const ServeCellResult cell =
            runOpenLoop(kind, cfg, apps, lambda, opts.serve);
        out.steps.push_back(cell);
        if (cell.maxQueueDepth >= depthLimit) {
            out.stopReason = kStopQueueDiverged;
            break;
        }
        if (out.steps.size() >= 2) {
            const double prev =
                out.steps[out.steps.size() - 2].goodputPerSec;
            if (cell.goodputPerSec - prev < kFlattenPct * prev) {
                out.stopReason = kStopGoodputFlattened;
                break;
            }
        }
        lambda *= kLadderGrowth;
    }
    return out;
}

unsigned
maxLoadSteps()
{
    // 0 is clamped to one rung: a ladder always runs at least one.
    return static_cast<unsigned>(
        std::max(1ul, knobCount(Knob::MAX_LOAD_STEPS)));
}

} // namespace ih
