#include "harness/serve.hh"

#include <algorithm>
#include <cinttypes>
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

/** Base load from one back-to-back session per app on @p calib_arch:
 *  the pinned-INSECURE default keeps the origin arch-independent (the
 *  curves share absolute loads); per-arch calibration passes the
 *  architecture under test instead. */
double
calibratedLambda0(const SysConfig &cfg, const std::vector<AppSpec> &apps,
                  const ServeOptions &opts, ArchKind calib_arch)
{
    SessionOptions sopts;
    sopts.interactionsPerSession = opts.interactionsPerSession;
    SessionServer server(cfg, calib_arch, apps, sopts);
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

    const double lambda0 =
        opts.lambda0 > 0.0
            ? opts.lambda0
            : calibratedLambda0(cfg, apps, opts.serve,
                                opts.perArchCalib ? kind
                                                  : ArchKind::INSECURE);
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

// --------------------------------------------------------------------------
// Ladder wire format
// --------------------------------------------------------------------------

namespace
{

/** Bump when the field list below changes. */
constexpr const char *kLadderMagic = "ihserve1";
constexpr std::size_t kLadderHeaderFields = 4; // magic, arch, stop, n
constexpr std::size_t kLadderStepFields = 16;

} // namespace

std::string
serializeLadder(const LoadLadderResult &r)
{
    IH_ASSERT(r.arch.find('|') == std::string::npos &&
                  r.stopReason.find('|') == std::string::npos,
              "ladder strings must not contain '|' ('%s'/'%s')",
              r.arch.c_str(), r.stopReason.c_str());
    std::string out = kLadderMagic;
    const auto u64 = [&out](std::uint64_t v) {
        out += strprintf("|%" PRIu64, v);
    };
    out += '|';
    out += r.arch;
    out += '|';
    out += r.stopReason;
    u64(r.steps.size());
    for (const ServeCellResult &c : r.steps) {
        out += '|' + fmtDouble(c.offeredPerSec);
        u64(c.sessions);
        u64(c.makespan);
        u64(c.p50);
        u64(c.p99);
        u64(c.p999);
        u64(c.maxLatency);
        out += '|' + fmtDouble(c.meanLatency);
        out += '|' + fmtDouble(c.goodputPerSec);
        u64(c.maxQueueDepth);
        u64(c.reconfigEvents);
        u64(c.appSwitchPurges);
        u64(c.transitions);
        u64(c.purgeCycles);
        u64(c.transitionCycles);
        u64(c.reconfigCycles);
    }
    return out;
}

bool
deserializeLadder(const std::string &payload, LoadLadderResult &r)
{
    const std::vector<std::string> f = splitOn(payload, '|');
    if (f.size() < kLadderHeaderFields || f[0] != kLadderMagic)
        return false;
    std::uint64_t nsteps = 0;
    if (!parseU64(f[3], nsteps) ||
        f.size() != kLadderHeaderFields + nsteps * kLadderStepFields)
        return false;

    LoadLadderResult out;
    out.arch = f[1];
    out.stopReason = f[2];
    std::size_t i = kLadderHeaderFields;
    const auto getU = [&](std::uint64_t &dst) {
        return parseU64(f[i++], dst);
    };
    const auto getD = [&](double &dst) { return parseF64(f[i++], dst); };
    for (std::uint64_t s = 0; s < nsteps; ++s) {
        ServeCellResult c;
        if (!getD(c.offeredPerSec) || !getU(c.sessions) ||
            !getU(c.makespan) || !getU(c.p50) || !getU(c.p99) ||
            !getU(c.p999) || !getU(c.maxLatency) ||
            !getD(c.meanLatency) || !getD(c.goodputPerSec) ||
            !getU(c.maxQueueDepth) || !getU(c.reconfigEvents) ||
            !getU(c.appSwitchPurges) || !getU(c.transitions) ||
            !getU(c.purgeCycles) || !getU(c.transitionCycles) ||
            !getU(c.reconfigCycles))
            return false;
        out.steps.push_back(c);
    }
    r = std::move(out);
    return true;
}

unsigned
maxLoadSteps()
{
    // 0 is clamped to one rung: a ladder always runs at least one.
    return static_cast<unsigned>(
        std::max(1ul, knobCount(Knob::MAX_LOAD_STEPS)));
}

} // namespace ih
