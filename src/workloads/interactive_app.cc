#include "workloads/interactive_app.hh"

#include <algorithm>

#include "core/mi6.hh"
#include "core/secure_kernel.hh"
#include "workloads/abc.hh"
#include "workloads/aes_service.hh"
#include "workloads/convnet.hh"
#include "workloads/graph_apps.hh"
#include "workloads/kv_store.hh"
#include "workloads/os_service.hh"
#include "workloads/query.hh"
#include "workloads/vision.hh"
#include "workloads/web_server.hh"

namespace ih
{

namespace
{

std::uint64_t
scaledCount(std::uint64_t n, double s, std::uint64_t min)
{
    return std::max<std::uint64_t>(
        min, static_cast<std::uint64_t>(static_cast<double>(n) * s));
}

} // namespace

std::vector<AppSpec>
standardApps(double scale)
{
    std::vector<AppSpec> apps;

    const GraphAppParams gp = GraphAppParams{}.scaled(
        std::min(1.0, 0.75 + scale / 4));
    const std::uint64_t user_n = scaledCount(96, scale, 6);
    const std::uint64_t os_n = scaledCount(9000, scale, 60);

    // --- Real-time graph processing -----------------------------------
    for (const char *algo : {"SSSP", "PR", "TC"}) {
        AppSpec a;
        a.name = strprintf("<%s, GRAPH>", algo);
        a.insecureName = "GRAPH";
        a.secureName = algo;
        a.insecureThreads = 32;
        a.secureThreads = 32;
        a.interactions = user_n;
        const std::string alg = algo;
        a.make = [gp, alg](const SysConfig &cfg) {
            WorkloadPair p;
            auto gen = std::make_unique<GraphGenWorkload>(gp,
                                                          cfg.seed + 11);
            if (alg == "SSSP")
                p.secure = std::make_unique<SsspWorkload>(*gen, gp);
            else if (alg == "PR")
                p.secure = std::make_unique<PageRankWorkload>(*gen, gp);
            else
                p.secure = std::make_unique<TriCountWorkload>(*gen, gp);
            p.insecure = std::move(gen);
            return p;
        };
        apps.push_back(std::move(a));
    }

    // --- Real-time perception and mission planning --------------------
    const VisionParams vp = VisionParams{}.scaled(
        std::min(1.0, 0.75 + scale / 4));
    {
        AppSpec a;
        a.name = "<ABC, VISION>";
        a.insecureName = "VISION";
        a.secureName = "ABC";
        a.interactions = user_n;
        a.make = [vp](const SysConfig &cfg) {
            WorkloadPair p;
            auto vis = std::make_unique<VisionWorkload>(vp, cfg.seed + 23);
            p.secure = std::make_unique<AbcWorkload>(*vis, AbcParams{});
            p.insecure = std::move(vis);
            return p;
        };
        apps.push_back(std::move(a));
    }
    for (const char *net : {"ALEXNET", "SQZ-NET"}) {
        AppSpec a;
        a.name = strprintf("<%s, VISION>", net);
        a.insecureName = "VISION";
        a.secureName = net;
        a.interactions = user_n;
        const bool alex = std::string(net) == "ALEXNET";
        a.make = [vp, alex](const SysConfig &cfg) {
            WorkloadPair p;
            auto vis = std::make_unique<VisionWorkload>(vp, cfg.seed + 31);
            p.secure = std::make_unique<ConvNetWorkload>(
                *vis, alex ? alexnetLayers(1.0) : squeezenetLayers(1.0));
            p.insecure = std::move(vis);
            return p;
        };
        apps.push_back(std::move(a));
    }

    // --- Query encryption -----------------------------------------------
    {
        AppSpec a;
        a.name = "<AES, QUERY>";
        a.insecureName = "QUERY";
        a.secureName = "AES";
        a.interactions = user_n;
        const QueryParams qp = QueryParams{}.scaled(
            std::min(1.0, 0.5 + scale / 2));
        a.make = [qp](const SysConfig &) {
            WorkloadPair p;
            auto gen = std::make_unique<QueryGenWorkload>(qp);
            p.secure = std::make_unique<AesServiceWorkload>(*gen);
            p.insecure = std::move(gen);
            return p;
        };
        apps.push_back(std::move(a));
    }

    // --- OS-level interactive applications ------------------------------
    {
        AppSpec a;
        a.name = "<MEMCACHED, OS>";
        a.insecureName = "OS";
        a.secureName = "MEMCACHED";
        a.insecureThreads = 4;
        a.secureThreads = 4;
        a.interactions = os_n;
        a.osLevel = true;
        a.pipelineDepth = 1; // synchronous OCALL per request batch
        const OsAppParams op = OsAppParams{}.scaled(
            std::min(1.0, 0.5 + scale / 2));
        a.make = [op](const SysConfig &) {
            WorkloadPair p;
            auto os = std::make_unique<OsServiceWorkload>(op);
            p.secure = std::make_unique<KvStoreWorkload>(*os, 131072);
            p.insecure = std::move(os);
            return p;
        };
        apps.push_back(std::move(a));
    }
    {
        AppSpec a;
        a.name = "<LIGHTTPD, OS>";
        a.insecureName = "OS";
        a.secureName = "LIGHTTPD";
        a.insecureThreads = 4;
        a.secureThreads = 2;
        a.interactions = scaledCount(7000, scale, 60);
        a.osLevel = true;
        a.pipelineDepth = 1; // synchronous OCALL per request batch
        OsAppParams op = OsAppParams{}.scaled(std::min(1.0, 0.5 +
                                                       scale / 2));
        op.requestsPerInteraction = 2;
        op.syscallsPerInteraction = 4;
        const WebParams wp = WebParams{}.scaled(
            std::min(1.0, 0.5 + scale / 2));
        a.make = [op, wp](const SysConfig &) {
            WorkloadPair p;
            auto os = std::make_unique<OsServiceWorkload>(op);
            p.secure = std::make_unique<WebServerWorkload>(*os, wp);
            p.insecure = std::move(os);
            return p;
        };
        apps.push_back(std::move(a));
    }

    return apps;
}

AppSpec
findApp(const std::string &name, double scale)
{
    for (auto &a : standardApps(scale)) {
        if (a.name == name)
            return a;
    }
    fatal("unknown application '%s'", name.c_str());
}

AppInstance::AppInstance(System &sys, SecurityModel &model,
                         const AppSpec &spec)
    : sys_(sys), model_(model), spec_(spec)
{
    insecure_ = &sys.createProcess(spec.insecureName, Domain::INSECURE,
                                   spec.insecureThreads);
    secure_ = &sys.createProcess(spec.secureName, Domain::SECURE,
                                 spec.secureThreads);

    // Provision the secure process with a vendor signature so the
    // secure kernel's attestation passes (tamper tests override this).
    SecureKernel vendor(sys, MulticoreMi6::defaultVendorKey());
    vendor.provision(*secure_);

    ipc_ = std::make_unique<IpcBuffer>(*insecure_, 8, 512);
    wl_ = spec_.make(sys_.config());
    IH_ASSERT(wl_.insecure && wl_.secure, "app factory returned nulls");
}

void
AppInstance::setup()
{
    wl_.insecure->setup(*insecure_, *ipc_);
    wl_.secure->setup(*secure_, *ipc_);
}

InteractionClock
AppInstance::clockAt(Cycle t) const
{
    return InteractionClock(t, spec_.pipelineDepth);
}

std::uint64_t
AppInstance::interact(std::uint64_t first, std::uint64_t count,
                      InteractionClock &clock)
{
    ExecEngine &engine = sys_.engine();
    std::uint64_t instructions = 0;
    for (std::uint64_t i = first; i < first + count; ++i) {
        // Producer pipelines ahead, bounded by the IPC ring depth.
        Cycle &slot = clock.exits[i % clock.exits.size()];
        wl_.insecure->beginPhase(PhaseKind::PRODUCE, i,
                                 insecure_->requestedThreads());
        clock.producer =
            engine
                .runPhase(*insecure_, *wl_.insecure,
                          std::max(clock.producer, slot))
                .finish;

        // Consumer starts when its input batch is ready.
        const Cycle start = model_.enclaveEnter(
            *secure_, std::max(clock.consumer, clock.producer));
        wl_.secure->beginPhase(PhaseKind::CONSUME, i,
                               secure_->requestedThreads());
        const PhaseResult pr =
            engine.runPhase(*secure_, *wl_.secure, start);
        clock.consumer = slot = model_.enclaveExit(*secure_, pr.finish);
        instructions += pr.instructions;
    }
    return instructions;
}

InteractiveApp::InteractiveApp(System &sys, SecurityModel &model,
                               const AppSpec &spec)
    : sys_(sys), model_(model), app_(sys, model, spec)
{
    model_.configure({&app_.insecureProc(), &app_.secureProc()}, 0);
    app_.setup();
}

namespace
{

/** Snapshot of the counters that are diffed over the timed region. */
struct StatSnap
{
    std::uint64_t l1a, l1m, l2a, l2m;
    Cycle purge, trans;
    std::uint64_t events;

    static StatSnap
    take(System &sys, SecurityModel &model)
    {
        StatGroup &m = sys.mem().stats();
        return {m.value("l1_accesses"), m.value("l1_misses"),
                m.value("l2_accesses"), m.value("l2_misses"),
                model.purgeOverhead(), model.transitionOverhead(),
                model.transitions()};
    }
};

void
finishResult(RunResult &res, System &sys, SecurityModel &model,
             const StatSnap &s0)
{
    const StatSnap s1 = StatSnap::take(sys, model);
    res.l1MissRate = safeDiv(static_cast<double>(s1.l1m - s0.l1m),
                             static_cast<double>(s1.l1a - s0.l1a));
    res.l2MissRate = safeDiv(static_cast<double>(s1.l2m - s0.l2m),
                             static_cast<double>(s1.l2a - s0.l2a));
    res.purgeCycles = s1.purge - s0.purge;
    res.transitionCycles = s1.trans - s0.trans;
    res.transitions = s1.events - s0.events;
    res.reconfigCycles = model.reconfigOverhead();
    res.secureCores = model.secureCoreCount();
    res.interactivityPerSec =
        res.completion == 0
            ? 0.0
            : static_cast<double>(res.transitions) /
                  (static_cast<double>(res.completion) / 1e9);
    res.isolationViolations = sys.network().isolationViolations();
    res.blockedAccesses = sys.mem().blockedAccesses();
}

} // namespace

RunResult
InteractiveApp::run(const RunOptions &opts)
{
    const std::uint64_t n = opts.maxInteractions ? opts.maxInteractions
                                                 : app_.spec().interactions;
    const std::uint64_t warmup = std::min(opts.warmup, n / 2);

    RunResult res;
    InteractionClock clock = app_.clockAt(0);
    res.instructions = app_.interact(0, warmup, clock);

    const Cycle timed_start = clock.now();
    const StatSnap snap = StatSnap::take(sys_, model_);
    if (warmup < n && opts.reconfigTarget && model_.spatial()) {
        // One-time dynamic hardware isolation: the system stalls while
        // cores and pages move between the clusters.
        clock.producer = clock.consumer =
            model_.reconfigure(*opts.reconfigTarget, timed_start);
    }
    res.instructions += app_.interact(warmup, n - warmup, clock);

    res.completion = clock.now() - timed_start;
    finishResult(res, sys_, model_, snap);
    return res;
}

} // namespace ih
