/**
 * @file
 * Host-time benchmark program of the IRONHIDE simulator.
 *
 * Runs one named workload in this single-threaded process and prints
 * one tab-separated record per fact: the configuration used, the host
 * time of each setup round and each pass, the host time and simulated
 * outputs of each op, and the peak resident memory. perfbench/run.py
 * builds this program, turns the records into the benchmark's metrics
 * and checks the simulated outputs against the recorded expected
 * values (README.md lists the records).
 *
 * Untraced ops enter the simulator where the benches do:
 * runExperiment() for a grid cell, SessionServer::serve() for a
 * session. With --trace 1 the program does half the work, and each op
 * runs untraced and then again with host-time spans: a grid cell is
 * replayed through the public calls that runExperiment() and
 * InteractiveApp::run() make, a session is one span around serve().
 * It then prints per-layer self times and the simulated event counts
 * of the machines it timed.
 *
 * Usage:
 *   ih_perfbench --workload fig6_grid|os_transitions|serve_churn
 *                --seed N --seconds S [--trace 0|1] [--spans PATH]
 *                [--check-sessions N] [--perturb-replay]
 *
 * --seconds sets the amount of work from each workload's nominal cost,
 * so a run's op count (and with it the tail percentile) does not
 * depend on host speed. --spans writes the traced run's raw spans as
 * TSV. --check-sessions sets how many of each serve_churn server's
 * sessions are compared with runOpenLoop(). --perturb-replay shifts the first traced op's simulated timing,
 * so the self-test can show that a traced run whose outputs differ
 * from the untraced run is reported.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ironhide.hh"
#include "core/session_server.hh"
#include "harness/arrival.hh"
#include "harness/experiment.hh"
#include "harness/percentile.hh"
#include "harness/serve.hh"
#include "mem/cache.hh"
#include "noc/network.hh"
#include "sim/log.hh"
#include "workloads/interactive_app.hh"

extern char **environ;

using namespace ih;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * The heuristic's own split choices at scale 0.1. serve_churn and the
 * fixed-split IRONHIDE cells of os_transitions use them, so no probes
 * run there.
 */
const std::map<std::string, unsigned> kRecordedSplits = {
    {"<SSSP, GRAPH>", 35},     {"<PR, GRAPH>", 25},
    {"<TC, GRAPH>", 4},        {"<ABC, VISION>", 2},
    {"<ALEXNET, VISION>", 33}, {"<SQZ-NET, VISION>", 24},
    {"<AES, QUERY>", 32},      {"<MEMCACHED, OS>", 25},
    {"<LIGHTTPD, OS>", 25},
};

/** serve_churn's offered load in sessions per simulated second. It
 *  moves simulated latency only, not host work. */
constexpr double kServeLambdaPerSec = 2000.0;
constexpr std::uint64_t kInteractionsPerSession = 4;
/** Sessions per architecture compared against runOpenLoop() unless
 *  --check-sessions says otherwise. */
constexpr std::uint64_t kOpenLoopCheckSessions = 40;

enum class Kind : std::uint8_t
{
    GRID,  ///< one op = one fresh-machine cell via runExperiment()
    SERVE, ///< one op = one SessionServer::serve() call
};

struct Workload
{
    const char *name;
    Kind kind;
    double scale;
    std::vector<std::string> apps; ///< empty = all nine
    std::vector<ArchKind> archs;
    SplitPolicy policy; ///< IRONHIDE split choice
    /**
     * Rough host seconds of one unit of work on a shared 4-core x86
     * host: one pass over the cell grid, or one arrival served on every
     * architecture. --seconds / nominal gives the run's unit count. At
     * 30 s fig6_grid makes 8 passes (216 cells, so its tail is p95), and
     * serve_churn serves 375 sessions per architecture: from about 360
     * on, the schedule's median session falls mid-way through the ABC
     * sessions instead of at the edge of the four cheap apps, where
     * the median would jump between 4 and 10 ms.
     */
    double nominalSeconds;
    unsigned setupRounds;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"fig6_grid", Kind::GRID, 0.1, {},
         {ArchKind::SGX_LIKE, ArchKind::MI6, ArchKind::IRONHIDE},
         SplitPolicy::HEURISTIC, 3.75, 200},
        {"os_transitions", Kind::GRID, 0.3,
         {"<MEMCACHED, OS>", "<LIGHTTPD, OS>"},
         {ArchKind::INSECURE, ArchKind::SGX_LIKE, ArchKind::MI6,
          ArchKind::IRONHIDE},
         SplitPolicy::FIXED, 1.3, 200},
        {"serve_churn", Kind::SERVE, 0.1, {},
         {ArchKind::INSECURE, ArchKind::SGX_LIKE, ArchKind::MI6,
          ArchKind::IRONHIDE},
         SplitPolicy::FIXED, 0.08, 5},
    };
    return w;
}

std::vector<AppSpec>
selectApps(const Workload &w)
{
    std::vector<AppSpec> all = standardApps(w.scale);
    if (w.apps.empty())
        return all;
    std::vector<AppSpec> out;
    for (const std::string &name : w.apps) {
        for (AppSpec &a : all) {
            if (a.name == name)
                out.push_back(a);
        }
    }
    IH_ASSERT(out.size() == w.apps.size(), "unknown app in workload %s",
              w.name);
    return out;
}

unsigned
recordedSplit(const std::string &app)
{
    const auto it = kRecordedSplits.find(app);
    IH_ASSERT(it != kRecordedSplits.end(), "no recorded split for %s",
              app.c_str());
    return it->second;
}

/**
 * Seed of grid pass @p p. Pass 0 is the reference grid at SysConfig's
 * default seed, so every run times and checks the inputs perf_smoke's
 * checksum covers; later passes take splitmix64 steps from the run's
 * seed, so a run's host time spans several inputs. Every op depends on
 * its pass seed: besides the graph and vision generators, each Process
 * seeds its RNG from it, and the QUERY and OS workloads draw from that.
 */
std::uint64_t
passSeed(std::uint64_t seed, unsigned p)
{
    if (p == 0)
        return SysConfig{}.seed;
    std::uint64_t z = seed + p * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** In-memory host-time spans, nested by scope on one thread. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t op;
        std::int64_t parent; ///< index into spans(), -1 for an op root
        std::int64_t startNs;
        std::int64_t endNs;
    };

    void beginOp(std::uint64_t op) { op_ = op; }

    std::size_t
    open(const char *name)
    {
        spans_.push_back({name, op_, current_, nowNs(), -1});
        current_ = static_cast<std::int64_t>(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t i)
    {
        spans_[i].endNs = nowNs();
        current_ = spans_[i].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - base_)
            .count();
    }

    Clock::time_point base_ = Clock::now();
    std::vector<Span> spans_;
    std::int64_t current_ = -1;
    std::uint64_t op_ = 0;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name) : t_(t), i_(t.open(name)) {}
    ~ScopedSpan() { t_.close(i_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    std::size_t i_;
};

/** Self time per span name, and whether every op's self times sum to
 *  its root span. */
struct SelfTimes
{
    std::map<std::string, double> secondsByName;
    bool sumsMatch = true;
};

/** A span's self time is its duration minus the time its children
 *  cover; children of one span never overlap (one thread). */
SelfTimes
selfTimes(const std::vector<Tracer::Span> &spans)
{
    SelfTimes out;
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Tracer::Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Tracer::Span &p = spans[static_cast<std::size_t>(s.parent)];
        if (s.startNs < p.startNs || s.endNs > p.endNs || s.op != p.op)
            out.sumsMatch = false;
        covered[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::uint64_t, std::int64_t> rootNs;
    std::map<std::uint64_t, std::int64_t> selfNs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        const std::int64_t self = s.endNs - s.startNs - covered[i];
        if (self < 0)
            out.sumsMatch = false;
        out.secondsByName[s.name] += static_cast<double>(self) * 1e-9;
        selfNs[s.op] += self;
        if (s.parent < 0)
            rootNs[s.op] += s.endNs - s.startNs;
    }
    if (selfNs != rootNs)
        out.sumsMatch = false;
    return out;
}

void
writeSpans(const std::vector<Tracer::Span> &spans, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        fatal("cannot write spans to '%s'", path);
    std::fprintf(f, "op\tname\tparent\tstart_ns\tend_ns\n");
    for (const Tracer::Span &s : spans) {
        std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.op), s.name,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    if (std::fclose(f) != 0)
        fatal("cannot write spans to '%s'", path);
}

// ---------------------------------------------------------------------
// Simulated event counts of a timed machine
// ---------------------------------------------------------------------

enum Count : std::size_t
{
    PHASES,
    INSTRUCTIONS,
    ACCESSES,
    L1_ACCESSES,
    L1_MISSES,
    L2_MISSES,
    TLB_MISSES,
    UPGRADES,
    INVALIDATIONS_SENT,
    BACK_INVALIDATIONS,
    PRIVATE_PURGES,
    FLUSHED_LINES,
    MC_QUEUE_WAIT_CYCLES,
    DRAM_ROW_MISSES,
    NOC_PACKETS,
    NOC_FLITS,
    NOC_LINK_STALL_CYCLES,
    TRANSITIONS,
    PURGE_CYCLES,
    RECONFIGS,
    APP_SWITCH_PURGES,
    PROBES,
    NUM_COUNTS
};

using Counts = std::array<std::uint64_t, NUM_COUNTS>;

Counts &
operator+=(Counts &a, const Counts &b)
{
    for (std::size_t i = 0; i < NUM_COUNTS; ++i)
        a[i] += b[i];
    return a;
}

/** The machine-wide counters of @p sys and @p model. RECONFIGS,
 *  APP_SWITCH_PURGES and PROBES are left to the caller. */
Counts
snapshot(System &sys, const SecurityModel &model)
{
    Counts c{};
    MemorySystem &mem = sys.mem();
    c[PHASES] = sys.engine().stats().value("phases");
    for (CoreId t = 0; t < sys.numTiles(); ++t) {
        c[INSTRUCTIONS] += sys.engine().core(t).instructions();
        c[FLUSHED_LINES] += mem.l1(t).stats().value("flushed_lines") +
                            mem.l2(t).stats().value("flushed_lines");
    }
    const StatGroup &m = mem.stats();
    c[ACCESSES] = m.value("accesses");
    c[L1_ACCESSES] = m.value("l1_accesses");
    c[L1_MISSES] = m.value("l1_misses");
    c[L2_MISSES] = m.value("l2_misses");
    c[TLB_MISSES] = m.value("tlb_misses");
    c[UPGRADES] = m.value("upgrades");
    c[INVALIDATIONS_SENT] = m.value("invalidations_sent");
    c[BACK_INVALIDATIONS] = m.value("back_invalidations");
    c[PRIVATE_PURGES] = m.value("private_purges");
    for (McId k = 0; k < mem.numMcs(); ++k) {
        c[MC_QUEUE_WAIT_CYCLES] +=
            mem.mc(k).stats().value("queue_wait_cycles");
        c[DRAM_ROW_MISSES] += mem.mc(k).dram().stats().value("row_misses");
    }
    const StatGroup &n = sys.network().stats();
    c[NOC_PACKETS] = n.value("packets");
    c[NOC_FLITS] = n.value("flits");
    c[NOC_LINK_STALL_CYCLES] = n.value("link_stall_cycles");
    c[TRANSITIONS] = model.transitions();
    c[PURGE_CYCLES] = model.purgeOverhead();
    return c;
}

// ---------------------------------------------------------------------
// Output records
// ---------------------------------------------------------------------

/** Run and time one op; an exception makes it a failed op. */
template <typename F>
void
timedOp(const char *phase, unsigned pass, std::uint64_t seed,
        const std::string &label, F &&f)
{
    std::vector<std::uint64_t> outputs;
    std::string status = "ok";
    const auto t0 = Clock::now();
    try {
        outputs = f();
    } catch (const std::exception &e) {
        status = std::string("error:") + e.what();
    } catch (...) {
        status = "error:unknown exception";
    }
    const double s = secondsBetween(t0, Clock::now());
    std::printf("op\t%s\t%u\t%llu\t%s\t%.9f\t%s\t", phase, pass,
                static_cast<unsigned long long>(seed), label.c_str(), s,
                status.c_str());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        std::printf("%s%llu", i ? "," : "",
                    static_cast<unsigned long long>(outputs[i]));
    }
    std::printf("\n");
}

/** Peak resident memory so far; printed right after the untraced ops,
 *  before any check builds machines of its own. */
void
printPeakRss()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("peak_rss_kib\t%ld\n", ru.ru_maxrss);
}

void
printLayer(const char *name, double value, const char *unit)
{
    std::printf("layer\t%s\t%.9g\t%s\n", name, value, unit);
}

/**
 * Per-layer metrics of a traced run, totals over its traced ops.
 * @p phase_span names the spans whose host time covers phase execution:
 * cpu.run_phase on the grid workloads, whole serve calls on
 * serve_churn, where runPhase runs inside SessionServer.
 */
void
printLayers(const SelfTimes &st, const Counts &c, double untraced_s,
            double traced_s, const char *phase_span)
{
    const auto self = [&](const char *span) {
        const auto it = st.secondsByName.find(span);
        return it == st.secondsByName.end() ? 0.0 : it->second;
    };
    const auto count = [&](Count k) { return static_cast<double>(c[k]); };
    const double probe_s = self("harness.decide_split");
    const double phase_s = self(phase_span);

    printLayer("harness.probe_s", probe_s, "s");
    printLayer("harness.probes", count(PROBES), "count");
    printLayer("harness.probe_ms_each",
               c[PROBES] ? probe_s * 1e3 / count(PROBES) : 0.0, "ms");
    printLayer("harness.op_self_s", self("harness.cell"), "s");
    printLayer("workloads.app_build_s", self("workloads.app_build"), "s");
    printLayer("core.machine_build_s", self("core.machine_build"), "s");
    printLayer("core.transition_s", self("core.transition"), "s");
    printLayer("core.transitions", count(TRANSITIONS), "count");
    printLayer("core.purge_cycles", count(PURGE_CYCLES), "cycles");
    printLayer("core.reconfigure_s", self("core.reconfigure"), "s");
    printLayer("core.reconfigs", count(RECONFIGS), "count");
    printLayer("core.app_switch_purges", count(APP_SWITCH_PURGES), "count");
    printLayer("core.serve_s", self("core.serve"), "s");
    printLayer("cpu.run_phase_s", self("cpu.run_phase"), "s");
    printLayer("cpu.phases", count(PHASES), "count");
    printLayer("cpu.instructions", count(INSTRUCTIONS), "count");
    printLayer("cpu.sim_mips",
               phase_s > 0.0 ? count(INSTRUCTIONS) / phase_s / 1e6 : 0.0,
               "MIPS");
    printLayer("cpu.ns_per_access",
               c[ACCESSES] ? phase_s * 1e9 / count(ACCESSES) : 0.0, "ns");
    printLayer("mem.accesses", count(ACCESSES), "count");
    printLayer("mem.l1_misses", count(L1_MISSES), "count");
    printLayer("mem.l1_hit_ratio",
               c[L1_ACCESSES]
                   ? 1.0 - count(L1_MISSES) / count(L1_ACCESSES)
                   : 0.0,
               "ratio");
    printLayer("mem.l2_misses", count(L2_MISSES), "count");
    printLayer("mem.tlb_misses", count(TLB_MISSES), "count");
    printLayer("mem.upgrades", count(UPGRADES), "count");
    printLayer("mem.invalidations_sent", count(INVALIDATIONS_SENT),
               "count");
    printLayer("mem.back_invalidations", count(BACK_INVALIDATIONS),
               "count");
    printLayer("mem.private_purges", count(PRIVATE_PURGES), "count");
    printLayer("mem.flushed_lines", count(FLUSHED_LINES), "count");
    printLayer("mem.mc_queue_wait_cycles", count(MC_QUEUE_WAIT_CYCLES),
               "cycles");
    printLayer("mem.dram_row_misses", count(DRAM_ROW_MISSES), "count");
    printLayer("noc.packets", count(NOC_PACKETS), "count");
    printLayer("noc.flits", count(NOC_FLITS), "count");
    printLayer("noc.link_stall_cycles", count(NOC_LINK_STALL_CYCLES),
               "cycles");
    printLayer("trace.overhead_share",
               untraced_s > 0.0 ? traced_s / untraced_s : 0.0, "ratio");
    for (const auto &[name, s] : st.secondsByName)
        std::printf("selftime\t%s\t%.9f\n", name.c_str(), s);
    std::printf("check\tself_time_sum\t%s\n",
                st.sumsMatch ? "ok" : "mismatch");
}

// ---------------------------------------------------------------------
// Grid workloads: fig6_grid, os_transitions
// ---------------------------------------------------------------------

struct Cell
{
    std::size_t app; ///< index into GridSetup::apps
    ArchKind arch;
    IronhideOptions ih;
};

struct GridSetup
{
    std::vector<SysConfig> cfgs; ///< one per pass
    std::vector<AppSpec> apps;
    std::vector<Cell> cells;
};

GridSetup
setupGrid(const Workload &w, std::uint64_t seed, unsigned passes)
{
    GridSetup s;
    for (unsigned p = 0; p < passes; ++p) {
        SysConfig cfg;
        cfg.seed = passSeed(seed, p);
        cfg.validate();
        s.cfgs.push_back(cfg);
    }
    s.apps = selectApps(w);
    for (std::size_t a = 0; a < s.apps.size(); ++a) {
        for (ArchKind arch : w.archs) {
            Cell c{a, arch, {}};
            c.ih.policy = w.policy;
            if (w.policy == SplitPolicy::FIXED)
                c.ih.fixedSplit = recordedSplit(s.apps[a].name);
            s.cells.push_back(c);
        }
    }
    return s;
}

/**
 * runExperiment() replayed through the public calls it and
 * InteractiveApp::run() make, with a span around each. Reproduces the
 * untraced outputs exactly unless @p ring_depth_bump (the self-test's
 * --perturb-replay) deepens the IPC ring.
 */
std::vector<std::uint64_t>
tracedCell(const AppSpec &spec, const Cell &cell, const SysConfig &cfg,
           Tracer &tr, Counts &counts, unsigned ring_depth_bump)
{
    ScopedSpan root(tr, "harness.cell");
    std::unique_ptr<System> sys;
    std::unique_ptr<SecurityModel> model;
    {
        ScopedSpan s(tr, "core.machine_build");
        sys = std::make_unique<System>(cfg);
        model = createModel(cell.arch, *sys);
    }
    std::optional<unsigned> target;
    std::uint64_t probes = 0;
    if (cell.arch == ArchKind::IRONHIDE &&
        cell.ih.policy != SplitPolicy::STATIC_HALF) {
        if (cell.ih.policy == SplitPolicy::FIXED) {
            target = cell.ih.fixedSplit;
        } else {
            ScopedSpan s(tr, "harness.decide_split");
            const ReallocPredictor::Decision d = decideSplit(
                spec, cfg, cell.ih.policy, cell.ih.probeInteractions,
                effectiveDomains(cfg));
            target = d.secureCores;
            probes = d.probes;
        }
    }
    std::unique_ptr<InteractiveApp> app;
    {
        ScopedSpan s(tr, "workloads.app_build");
        app = std::make_unique<InteractiveApp>(*sys, *model, spec);
    }

    // InteractiveApp::run() under runExperiment()'s RunOptions.
    const std::uint64_t n = spec.interactions;
    const std::uint64_t warmup =
        std::min(std::min<std::uint64_t>(8, spec.interactions / 4), n / 2);
    const unsigned depth =
        std::max(1u, spec.pipelineDepth) + ring_depth_bump;
    ExecEngine &engine = sys->engine();
    Process &ins = app->insecureProc();
    Process &sec = app->secureProc();
    InteractiveWorkload &ins_wl = app->insecureWorkload();
    InteractiveWorkload &sec_wl = app->secureWorkload();
    Cycle prod_t = 0;
    Cycle cons_t = 0;
    Cycle timed_start = 0;
    std::uint64_t instructions = 0;
    std::vector<Cycle> cons_finish(n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i == warmup) {
            timed_start = std::max(prod_t, cons_t);
            if (target && model->spatial()) {
                ScopedSpan s(tr, "core.reconfigure");
                prod_t = cons_t = model->reconfigure(*target, timed_start);
            }
        }
        if (i >= depth)
            prod_t = std::max(prod_t, cons_finish[i - depth]);
        ins_wl.beginPhase(PhaseKind::PRODUCE, i, ins.requestedThreads());
        {
            ScopedSpan s(tr, "cpu.run_phase");
            prod_t = engine.runPhase(ins, ins_wl, prod_t).finish;
        }
        Cycle start = std::max(cons_t, prod_t);
        {
            ScopedSpan s(tr, "core.transition");
            start = model->enclaveEnter(sec, start);
        }
        sec_wl.beginPhase(PhaseKind::CONSUME, i, sec.requestedThreads());
        PhaseResult pr;
        {
            ScopedSpan s(tr, "cpu.run_phase");
            pr = engine.runPhase(sec, sec_wl, start);
        }
        {
            ScopedSpan s(tr, "core.transition");
            cons_t = model->enclaveExit(sec, pr.finish);
        }
        cons_finish[i] = cons_t;
        instructions += pr.instructions;
    }

    Counts c = snapshot(*sys, *model);
    if (const auto *ih = dynamic_cast<const Ironhide *>(model.get()))
        c[RECONFIGS] = ih->reconfigCount();
    c[PROBES] = probes;
    counts += c;
    return {std::max(prod_t, cons_t) - timed_start, instructions};
}

/** One pass over the cell grid; prints the pass's wall time. */
template <typename RunCell>
double
gridPass(const char *phase, unsigned p, const GridSetup &g, RunCell &&run)
{
    const SysConfig &cfg = g.cfgs[p];
    const auto t0 = Clock::now();
    for (const Cell &c : g.cells) {
        const AppSpec &spec = g.apps[c.app];
        timedOp(phase, p, cfg.seed, spec.name + "/" + archName(c.arch),
                [&] { return run(spec, c, cfg); });
    }
    const double s = secondsBetween(t0, Clock::now());
    std::printf("pass\t%s\t%u\t%.9f\n", phase, p, s);
    return s;
}

void
runGrid(const Workload &w, std::uint64_t seed, unsigned passes, bool trace,
        const char *spans_path, bool perturb)
{
    // Set-up takes microseconds, so one burst of rounds would sample the
    // host in a single instant. The rounds are spread over the run,
    // some before each pass; the ops use the first set-up.
    const auto timedSetup = [&] {
        const auto t0 = Clock::now();
        GridSetup s = setupGrid(w, seed, passes);
        std::printf("setup\t%.9f\n", secondsBetween(t0, Clock::now()));
        return s;
    };
    const GridSetup g = timedSetup();
    const unsigned rounds = std::max(1u, w.setupRounds / passes);

    // Traced passes alternate with untraced ones, so both see the same
    // host conditions and trace.overhead_share compares like with like.
    Tracer tr;
    Counts counts{};
    std::uint64_t op = 0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    for (unsigned p = 0; p < passes; ++p) {
        for (unsigned r = p == 0 ? 1 : 0; r < rounds; ++r)
            timedSetup();
        untraced_s += gridPass(
            "untraced", p, g,
            [](const AppSpec &spec, const Cell &c, const SysConfig &cfg) {
                const ExperimentResult r =
                    runExperiment(spec, c.arch, cfg, c.ih);
                return std::vector<std::uint64_t>{r.run.completion,
                                                  r.run.instructions};
            });
        if (!trace)
            continue;
        traced_s += gridPass(
            "traced", p, g,
            [&](const AppSpec &spec, const Cell &c, const SysConfig &cfg) {
                tr.beginOp(op);
                const unsigned bump = perturb && op == 0 ? 1 : 0;
                ++op;
                return tracedCell(spec, c, cfg, tr, counts, bump);
            });
    }
    printPeakRss();
    if (!trace)
        return;
    printLayers(selfTimes(tr.spans()), counts, untraced_s, traced_s,
                "cpu.run_phase");
    if (spans_path)
        writeSpans(tr.spans(), spans_path);
}

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/** The fields of a serving cell that the servers' own stream also
 *  determines (runOpenLoop() adds the offered load and queue depth). */
bool
sameOutcome(const ServeCellResult &a, const ServeCellResult &b)
{
    return a.sessions == b.sessions && a.makespan == b.makespan &&
           a.p50 == b.p50 && a.p99 == b.p99 && a.p999 == b.p999 &&
           a.maxLatency == b.maxLatency && a.meanLatency == b.meanLatency &&
           a.reconfigEvents == b.reconfigEvents &&
           a.appSwitchPurges == b.appSwitchPurges &&
           a.transitions == b.transitions &&
           a.purgeCycles == b.purgeCycles &&
           a.transitionCycles == b.transitionCycles &&
           a.reconfigCycles == b.reconfigCycles;
}

struct ServeSetup
{
    SysConfig cfg;
    std::vector<AppSpec> apps;
    ServeOptions opts;
    std::vector<Arrival> schedule;
    std::vector<std::unique_ptr<SessionServer>> servers; ///< per arch
};

ServeSetup
setupServe(const Workload &w, std::uint64_t seed, std::uint64_t sessions)
{
    ServeSetup s;
    s.cfg.seed = seed;
    s.cfg.validate();
    s.apps = selectApps(w);
    s.opts.sessions = sessions;
    s.opts.interactionsPerSession = kInteractionsPerSession;
    // One fixed arrival schedule (the ServeOptions default seed): with a
    // seeded mix over nine apps whose sessions cost 0.2 to 70 ms of host
    // time, the median session would move with the mix. The run's seed
    // drives the machines' inputs instead.
    for (const AppSpec &a : s.apps)
        s.opts.splits.push_back(recordedSplit(a.name));

    // The schedule and server options runOpenLoop() derives from
    // s.opts, so its results are comparable with the servers'.
    ArrivalConfig acfg;
    acfg.lambdaPerSec = kServeLambdaPerSec;
    acfg.sessions = sessions;
    acfg.seed = s.opts.seed;
    acfg.mix = std::vector<double>(s.apps.size(), 1.0);
    s.schedule = ArrivalProcess(acfg).schedule();
    SessionOptions sopts;
    sopts.interactionsPerSession = s.opts.interactionsPerSession;
    sopts.splits = s.opts.splits;
    for (ArchKind arch : w.archs) {
        s.servers.push_back(
            std::make_unique<SessionServer>(s.cfg, arch, s.apps, sopts));
    }
    return s;
}

/**
 * Serve the whole schedule on every architecture's server and return
 * the host seconds of all serve calls. Fills @p prefix with each
 * server's outcome after its first @p check_sessions sessions.
 */
double
serveAll(const Workload &w, ServeSetup &s, const char *phase, Tracer *tr,
         Cycle first_arrival_shift, std::uint64_t check_sessions,
         std::vector<ServeCellResult> &prefix)
{
    const auto t0 = Clock::now();
    std::uint64_t op = 0;
    for (std::size_t k = 0; k < w.archs.size(); ++k) {
        SessionServer &server = *s.servers[k];
        PercentileAccumulator lat;
        for (std::size_t i = 0; i < s.schedule.size(); ++i, ++op) {
            const Arrival &a = s.schedule[i];
            const Cycle arrival =
                a.cycle + (op == 0 ? first_arrival_shift : 0);
            timedOp(phase, 0, s.cfg.seed,
                    strprintf("%s/%zu/%s", archName(w.archs[k]), i,
                              s.apps[a.appIndex].name.c_str()),
                    [&] {
                        std::optional<ScopedSpan> span;
                        if (tr) {
                            tr->beginOp(op);
                            span.emplace(*tr, "core.serve");
                        }
                        const Cycle finish =
                            server.serve(a.appIndex, arrival);
                        lat.add(finish - a.cycle);
                        return std::vector<std::uint64_t>{finish};
                    });
            if (i + 1 != check_sessions)
                continue;
            const SecurityModel &m = server.model();
            ServeCellResult o;
            o.sessions = server.sessionsServed();
            o.makespan = server.busyUntil();
            o.p50 = lat.quantile(0.50);
            o.p99 = lat.quantile(0.99);
            o.p999 = lat.quantile(0.999);
            o.maxLatency = lat.max();
            o.meanLatency = lat.mean();
            o.reconfigEvents = server.reconfigEvents();
            o.appSwitchPurges = server.appSwitchPurges();
            o.transitions = m.transitions();
            o.purgeCycles = m.purgeOverhead();
            o.transitionCycles = m.transitionOverhead();
            o.reconfigCycles = m.reconfigOverhead();
            prefix.push_back(o);
        }
    }
    return secondsBetween(t0, Clock::now());
}

/** Compare each server's first sessions with runOpenLoop() on the
 *  same inputs; one record per architecture. */
void
checkAgainstOpenLoop(const Workload &w, const ServeSetup &s,
                     std::uint64_t check_sessions,
                     const std::vector<ServeCellResult> &prefix)
{
    ServeOptions opts = s.opts;
    opts.sessions = check_sessions;
    for (std::size_t k = 0; k < w.archs.size(); ++k) {
        const ServeCellResult ref = runOpenLoop(
            w.archs[k], s.cfg, s.apps, kServeLambdaPerSec, opts);
        const bool ok = k < prefix.size() && sameOutcome(prefix[k], ref);
        std::printf("openloop\t%s\t%llu\t%s\n", archName(w.archs[k]),
                    static_cast<unsigned long long>(check_sessions),
                    ok ? "ok" : "mismatch");
    }
}

void
runServe(const Workload &w, std::uint64_t seed, std::uint64_t sessions,
         std::uint64_t check_sessions, bool trace, const char *spans_path,
         bool perturb)
{
    std::optional<ServeSetup> s;
    for (unsigned r = 0; r < w.setupRounds; ++r) {
        s.reset(); // never hold two server sets at once
        const auto t0 = Clock::now();
        s.emplace(setupServe(w, seed, sessions));
        std::printf("setup\t%.9f\n", secondsBetween(t0, Clock::now()));
    }
    const std::uint64_t check = std::min(sessions, check_sessions);
    std::vector<ServeCellResult> prefix;
    const double untraced_s =
        serveAll(w, *s, "untraced", nullptr, 0, check, prefix);
    std::printf("pass\tuntraced\t0\t%.9f\n", untraced_s);
    printPeakRss();
    if (!trace) {
        checkAgainstOpenLoop(w, *s, check, prefix);
        return;
    }

    // A fresh server set for the traced replay of the same stream.
    s.reset();
    s.emplace(setupServe(w, seed, sessions));
    Counts before{};
    for (const auto &srv : s->servers)
        before += snapshot(srv->system(), srv->model());
    Tracer tr;
    const double traced_s = serveAll(w, *s, "traced", &tr,
                                     perturb ? 1000 : 0, check, prefix);
    std::printf("pass\ttraced\t0\t%.9f\n", traced_s);
    Counts c{};
    for (const auto &srv : s->servers) {
        c += snapshot(srv->system(), srv->model());
        c[RECONFIGS] += srv->reconfigEvents();
        c[APP_SWITCH_PURGES] += srv->appSwitchPurges();
    }
    for (std::size_t i = 0; i < NUM_COUNTS; ++i)
        c[i] -= before[i];
    printLayers(selfTimes(tr.spans()), c, untraced_s, traced_s,
                "core.serve");
    if (spans_path)
        writeSpans(tr.spans(), spans_path);
}

// ---------------------------------------------------------------------
// Host calibration, environment and build checks
// ---------------------------------------------------------------------

template <typename T>
inline void
sink(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/**
 * Host speed reference: a fixed cache + NoC loop like the
 * micro_components substrates, median of five timings. It lets readers
 * compare raw host times across machines; it never gates a run.
 */
double
calibrationMs()
{
    SysConfig cfg;
    cfg.validate();
    Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, topo.numTiles()};
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
        Cache cache("calib", 16 * 1024, 4, 64);
        net.resetLinkState();
        const auto t0 = Clock::now();
        Cycle t = 0;
        Addr a = 0;
        std::uint64_t hits = 0;
        for (std::uint32_t i = 0; i < (1u << 20); ++i) {
            if (cache.lookup(a))
                ++hits;
            else
                sink(cache.insert(a, 0, Domain::INSECURE));
            a = (a + 64 * 37) & ((64u << 10) - 1);
            t = net.traverse(i % 64, (i * 13 + 5) % 64, t, 5, whole);
        }
        sink(hits);
        sink(t);
        ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

/** Host knobs may change what is timed; only the pinned domain count
 *  may be set. */
void
refuseHostKnobs()
{
    for (char **e = environ; *e; ++e) {
        const char *kv = *e;
        if (std::strncmp(kv, "IRONHIDE_", 9) != 0 &&
            std::strncmp(kv, "IH_", 3) != 0)
            continue;
        if (std::strcmp(kv, "IRONHIDE_DOMAINS=1") == 0)
            continue;
        fatal("refusing to time with '%s' set: clear the IRONHIDE_*/IH_* "
              "variables (perfbench/run.py does)",
              kv);
    }
}

void
refuseUntimeableBuild()
{
    bool optimized = false;
#ifdef __OPTIMIZE__
    optimized = true;
#endif
    bool sanitized = IH_BENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
    if (!optimized || std::strcmp(IH_BENCH_BUILD_TYPE, "Debug") == 0)
        fatal("refusing to time a %s build", IH_BENCH_BUILD_TYPE);
    if (sanitized)
        fatal("refusing to time a sanitizer build");
}

struct Args
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    std::optional<double> seconds;
    std::uint64_t checkSessions = kOpenLoopCheckSessions;
    bool trace = false;
    const char *spans = nullptr;
    bool perturb = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--perturb-replay") {
            a.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("%s needs a value", f.c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (f == "--workload") {
            a.workload = v;
        } else if (f == "--seed") {
            const unsigned long long n = std::strtoull(v, &end, 10);
            if (!*v || *end || v[0] == '-')
                fatal("--seed needs a whole number, got '%s'", v);
            a.seed = n;
        } else if (f == "--seconds") {
            const double s = std::strtod(v, &end);
            if (!*v || *end || !std::isfinite(s) || s <= 0.0 || s > 3600.0)
                fatal("--seconds needs a number in (0, 3600], got '%s'", v);
            a.seconds = s;
        } else if (f == "--check-sessions") {
            const unsigned long long n = std::strtoull(v, &end, 10);
            if (!*v || *end || v[0] == '-' || n == 0)
                fatal("--check-sessions needs a positive number, got '%s'",
                      v);
            a.checkSessions = n;
        } else if (f == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                fatal("--trace needs 0 or 1, got '%s'", v);
            a.trace = v[0] == '1';
        } else if (f == "--spans") {
            a.spans = v;
        } else {
            fatal("unknown argument '%s'", f.c_str());
        }
    }
    if (!a.seed || !a.seconds)
        fatal("--seed and --seconds are required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    refuseUntimeableBuild();
    refuseHostKnobs();
    const Workload *w = nullptr;
    for (const Workload &c : workloads()) {
        if (args.workload == c.name)
            w = &c;
    }
    if (!w)
        fatal("unknown workload '%s'", args.workload.c_str());

    SysConfig cfg;
    const unsigned domains = effectiveDomains(cfg);
    if (cfg.engine != EngineKind::SERIAL || domains != 1)
        fatal("the benchmark times the serial engine at one domain");

    // A traced run spends half its time on the untraced reference.
    const double units =
        *args.seconds / w->nominalSeconds / (args.trace ? 2.0 : 1.0);
    const std::uint64_t n =
        std::max<std::uint64_t>(1, std::llround(units));
    std::printf("config\tworkload=%s\tengine=serial\tthreads=1\t"
                "domains=%u\tscale=%g\tseed=%llu\tunits=%llu\tbuild=%s\n",
                w->name, domains, w->scale,
                static_cast<unsigned long long>(*args.seed),
                static_cast<unsigned long long>(n), IH_BENCH_BUILD_TYPE);

    if (w->kind == Kind::GRID) {
        runGrid(*w, *args.seed, static_cast<unsigned>(n), args.trace,
                args.spans, args.perturb);
    } else {
        runServe(*w, *args.seed, n, args.checkSessions, args.trace,
                 args.spans, args.perturb);
    }

    std::printf("calib_ms\t%.6f\n", calibrationMs());
    return 0;
}
