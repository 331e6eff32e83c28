/**
 * @file
 * Workload tests: the graph generator and kernels compute real results;
 * the SimArray/SimRegion instrumentation issues the expected simulated
 * traffic; every benchmark application's phases terminate and make
 * progress.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/insecure.hh"
#include "core/ironhide.hh"
#include "workloads/convnet.hh"
#include "workloads/graph_apps.hh"
#include "workloads/interactive_app.hh"

using namespace ih;

TEST(RoadGraph, CsrIsWellFormed)
{
    Csr g = RoadGraphGen(16, 16, 0.2, 7).build();
    EXPECT_EQ(g.numVertices(), 256u);
    EXPECT_EQ(g.rowOff.front(), 0u);
    EXPECT_EQ(g.rowOff.back(), g.numEdges());
    for (std::size_t u = 0; u < g.numVertices(); ++u) {
        EXPECT_LE(g.rowOff[u], g.rowOff[u + 1]);
        // Sorted adjacency (triangle counting requires it).
        for (std::uint32_t e = g.rowOff[u] + 1; e < g.rowOff[u + 1]; ++e)
            EXPECT_LE(g.col[e - 1], g.col[e]);
    }
    for (std::uint32_t v : g.col)
        EXPECT_LT(v, g.numVertices());
    for (std::uint32_t w : g.weight)
        EXPECT_GT(w, 0u);
}

TEST(RoadGraph, GridEdgesAreSymmetric)
{
    Csr g = RoadGraphGen(8, 8, 0.0, 3).build();
    // Pure grid: every edge has its reverse.
    for (std::uint32_t u = 0; u < g.numVertices(); ++u) {
        for (std::uint32_t e = g.rowOff[u]; e < g.rowOff[u + 1]; ++e) {
            const std::uint32_t v = g.col[e];
            bool found = false;
            for (std::uint32_t e2 = g.rowOff[v]; e2 < g.rowOff[v + 1];
                 ++e2) {
                found |= g.col[e2] == u;
            }
            EXPECT_TRUE(found) << u << "->" << v;
        }
    }
}

TEST(RoadGraph, DeterministicForSeed)
{
    Csr a = RoadGraphGen(12, 12, 0.3, 42).build();
    Csr b = RoadGraphGen(12, 12, 0.3, 42).build();
    EXPECT_EQ(a.col, b.col);
    EXPECT_EQ(a.weight, b.weight);
}

namespace
{

/** A tiny machine + app harness for workload-level runs. */
struct AppRig
{
    System sys{SysConfig::smallTest()};
    InsecureBaseline model{sys};
    InteractiveApp app;

    explicit AppRig(const AppSpec &spec) : app(sys, model, spec) {}
};

AppSpec
tinyApp(const std::string &name)
{
    AppSpec spec = findApp(name, 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 4;
    spec.secureThreads = 4;
    return spec;
}

} // namespace

TEST(GraphApps, SsspComputesFiniteSourceDistance)
{
    const AppSpec spec = tinyApp("<SSSP, GRAPH>");
    AppRig rig(spec);
    const RunResult r = rig.app.run(RunOptions{.warmup = 0});
    EXPECT_GT(r.completion, 0u);
    auto &sssp = dynamic_cast<SsspWorkload &>(rig.app.secureWorkload());
    EXPECT_EQ(sssp.distanceOf(0), 0u); // source
    // Relaxation reached at least some neighbourhood.
    unsigned reached = 0;
    for (std::uint32_t v = 0; v < 64; ++v)
        reached += sssp.distanceOf(v) != 0xFFFFFFFFu;
    EXPECT_GT(reached, 1u);
}

TEST(GraphApps, TriangleCountingMakesProgress)
{
    const AppSpec spec = tinyApp("<TC, GRAPH>");
    AppRig rig(spec);
    const RunResult r = rig.app.run(RunOptions{.warmup = 0});
    EXPECT_GT(r.completion, 0u);
    EXPECT_GT(r.instructions, 0u);
    auto &tc = dynamic_cast<TriCountWorkload &>(rig.app.secureWorkload());
    EXPECT_GT(tc.triangles(), 0u);
}

TEST(Workloads, EveryStandardAppRunsUnderTheBaseline)
{
    for (const AppSpec &orig : standardApps(0.05)) {
        AppSpec spec = orig;
        spec.interactions = 3;
        spec.insecureThreads = 4;
        spec.secureThreads = 2;
        AppRig rig(spec);
        const RunResult r = rig.app.run(RunOptions{.warmup = 0});
        EXPECT_GT(r.completion, 0u) << spec.name;
        EXPECT_GT(r.instructions, 0u) << spec.name;
        EXPECT_EQ(r.transitions, 6u) << spec.name; // 3 entries + 3 exits
    }
}

TEST(Workloads, InteractivityScalesWithWorkPerInteraction)
{
    // OS-level interactions are far lighter than user-level ones.
    AppSpec user = tinyApp("<PR, GRAPH>");
    AppSpec os = tinyApp("<MEMCACHED, OS>");
    os.interactions = 4;
    AppRig u(user), o(os);
    const RunResult ru = u.app.run(RunOptions{.warmup = 0});
    const RunResult ro = o.app.run(RunOptions{.warmup = 0});
    EXPECT_GT(ro.interactivityPerSec, ru.interactivityPerSec * 5);
}

TEST(InteractiveApp, TheWarmupBoundaryNeedsAnInteraction)
{
    // The timed-region boundary — snapshot plus the one IRONHIDE
    // reconfiguration — comes after the warmup, so a run with no
    // interactions never reaches it; a single interaction does.
    for (const std::uint64_t n : {0u, 1u}) {
        System sys(SysConfig::smallTest());
        Ironhide model(sys);
        AppSpec spec = tinyApp("<SSSP, GRAPH>");
        spec.interactions = n;
        RunOptions opts;
        opts.reconfigTarget = 4; // the initial split is 8 of 16 tiles
        const RunResult r = InteractiveApp(sys, model, spec).run(opts);
        EXPECT_EQ(model.reconfigCount(), n);
        EXPECT_EQ(r.reconfigCycles > 0, n > 0);
        EXPECT_EQ(r.completion > 0, n > 0);
        EXPECT_EQ(r.transitions, 2 * n);
    }
}

TEST(ConvNet, LayerGeometry)
{
    const auto layers = alexnetLayers(1.0);
    ASSERT_GE(layers.size(), 5u);
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
        if (layers[i + 1].outChanBase != 0)
            continue; // fire-module expand pair shares input
        if (layers[i + 1].kind == LayerSpec::FC &&
            layers[i].kind == LayerSpec::FC) {
            EXPECT_EQ(layers[i + 1].inSize(),
                      static_cast<std::size_t>(layers[i].outC));
        }
    }
    // Pooling halves spatial dims.
    EXPECT_EQ(layers[1].outW(), layers[1].inW / 2);
}

TEST(ConvNet, SqueezeNetHasFewerWeights)
{
    auto count = [](const std::vector<LayerSpec> &ls) {
        std::size_t n = 0;
        for (const auto &l : ls)
            n += l.weightCount();
        return n;
    };
    EXPECT_LT(count(squeezenetLayers(1.0)), count(alexnetLayers(1.0)));
}

TEST(WorkRange, PartitionCoversAndIsDisjoint)
{
    for (unsigned total : {0u, 1u, 7u, 64u, 1000u}) {
        for (unsigned threads : {1u, 2u, 3u, 32u}) {
            std::vector<bool> covered(total, false);
            std::size_t sum = 0;
            for (unsigned t = 0; t < threads; ++t) {
                const WorkRange r = WorkRange::of(total, threads, t);
                EXPECT_LE(r.begin, r.end);
                sum += r.size();
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    EXPECT_FALSE(covered[i]);
                    covered[i] = true;
                }
            }
            EXPECT_EQ(sum, total);
        }
    }
}

TEST(SimArray, ScanTouchesOncePerLine)
{
    System sys{SysConfig::smallTest()};
    Process &p = sys.createProcess("p", Domain::INSECURE, 1);
    SimArray<std::uint32_t> arr;
    arr.init(p, 256);
    ExecContext ctx(sys.engine(), p, 0, 1, 0, 0);
    const auto before = sys.mem().stats().value("accesses");
    arr.scan(ctx, 0, 256, MemOp::LOAD); // 256 * 4B = 1 KiB = 16 lines
    EXPECT_EQ(sys.mem().stats().value("accesses") - before, 16u);
}

TEST(SimArray, ReadWriteRoundTrip)
{
    System sys{SysConfig::smallTest()};
    Process &p = sys.createProcess("p", Domain::INSECURE, 1);
    SimArray<std::uint64_t> arr;
    arr.init(p, 8, 5);
    ExecContext ctx(sys.engine(), p, 0, 1, 0, 0);
    EXPECT_EQ(arr.read(ctx, 3), 5u);
    arr.write(ctx, 3, 42);
    EXPECT_EQ(arr.read(ctx, 3), 42u);
    arr.update(ctx, 3, [](std::uint64_t &v) { v += 1; });
    EXPECT_EQ(arr.host(3), 43u);
}

namespace
{

/**
 * One machine of the SimRegion/SimArray traffic comparison: a secure
 * process with two threads (cores 0 and 1) and an IPC ring owned by an
 * insecure process.
 */
struct TrafficRig
{
    System sys{SysConfig::smallTest()};
    Process &os = sys.createProcess("os", Domain::INSECURE, 1);
    Process &proc = sys.createProcess("p", Domain::SECURE, 2);
    IpcBuffer ipc{os, 4, 256};
    ExecContext ctx[2] = {{sys.engine(), proc, 0, 2, 0, 0},
                          {sys.engine(), proc, 1, 2, 1, 0}};

    /** Every mem and noc counter, by group-qualified name. */
    std::map<std::string, std::uint64_t>
    counters()
    {
        std::map<std::string, std::uint64_t> all;
        for (const auto &[name, c] : sys.mem().stats().counters())
            all["mem." + name] = c.value();
        for (const auto &[name, c] : sys.network().stats().counters())
            all["noc." + name] = c.value();
        return all;
    }
};

/** Private and IPC-shared regions of 1-byte and 8-byte elements. */
template <template <typename> class Region>
struct MixedRegions
{
    Region<std::uint8_t> priv8, shared8;
    Region<std::uint64_t> priv64, shared64;

    explicit MixedRegions(TrafficRig &m)
    {
        priv8.init(m.proc, 3000);
        shared8.initShared(m.ipc, 700);
        priv64.init(m.proc, 900);
        shared64.initShared(m.ipc, 300);
    }
};

/** Apply one seeded op of the mix to @p r; @return its AccessResult. */
template <typename T>
AccessResult
applyOp(SimRegion<T> &r, ExecContext &ctx, Rng &rng)
{
    const std::size_t i = rng.nextRange(r.size());
    switch (rng.nextRange(4)) {
      case 0:
        return r.load(ctx, i);
      case 1:
        return r.update(ctx, i);
      default: {
        const std::size_t count = 1 + rng.nextRange(r.size() - i);
        const MemOp op = rng.chance(0.5) ? MemOp::LOAD : MemOp::STORE;
        return r.scan(ctx, i, count, op);
      }
    }
}

} // namespace

TEST(SimRegion, IssuesExactlySimArraysTraffic)
{
    // The same seeded mix of load/update/scan through an address-only
    // SimRegion and through a SimArray (which adds host values) on two
    // identical machines: same addresses, same per-op AccessResults and
    // the same complete mem and noc counter maps after every op.
    TrafficRig rm, am;
    MixedRegions<SimRegion> regions(rm);
    MixedRegions<SimArray> arrays(am);
    EXPECT_EQ(regions.priv8.addrOf(17), arrays.priv8.addrOf(17));
    EXPECT_EQ(regions.shared8.addrOf(5), arrays.shared8.addrOf(5));
    EXPECT_EQ(regions.priv64.addrOf(899), arrays.priv64.addrOf(899));
    EXPECT_EQ(regions.shared64.addrOf(0), arrays.shared64.addrOf(0));

    Rng rr(0x5EED), ar(0x5EED);
    for (unsigned n = 0; n < 600; ++n) {
        const unsigned t = n % 2;
        const unsigned which = static_cast<unsigned>(rr.nextRange(4));
        ASSERT_EQ(which, ar.nextRange(4));
        AccessResult a, b;
        const auto apply = [&](auto &region, auto &array) {
            a = applyOp(region, rm.ctx[t], rr);
            b = applyOp(array, am.ctx[t], ar);
        };
        switch (which) {
          case 0: apply(regions.priv8, arrays.priv8); break;
          case 1: apply(regions.shared8, arrays.shared8); break;
          case 2: apply(regions.priv64, arrays.priv64); break;
          default: apply(regions.shared64, arrays.shared64); break;
        }
        ASSERT_EQ(a.finish, b.finish) << "op " << n;
        ASSERT_EQ(a.tlbHit, b.tlbHit) << "op " << n;
        ASSERT_EQ(a.l1Hit, b.l1Hit) << "op " << n;
        ASSERT_EQ(a.l2Hit, b.l2Hit) << "op " << n;
        ASSERT_EQ(a.blocked, b.blocked) << "op " << n;
        ASSERT_EQ(rm.counters(), am.counters()) << "op " << n;
    }
    // The mix reached memory, the NoC and the IPC ring.
    EXPECT_GT(rm.sys.mem().stats().value("l1_misses"), 0u);
    EXPECT_GT(rm.sys.mem().stats().value("upgrades"), 0u);
    EXPECT_GT(rm.sys.network().stats().value("packets"), 0u);
    EXPECT_GT(rm.sys.engine().stats().value("ipc_accesses"), 0u);
}

TEST(IpcBuffer, SlotAddressing)
{
    System sys{SysConfig::smallTest()};
    Process &owner = sys.createProcess("os", Domain::INSECURE, 1);
    IpcBuffer ipc(owner, 4, 256);
    EXPECT_EQ(ipc.slots(), 4u);
    EXPECT_EQ(ipc.slotOf(0), 0u);
    EXPECT_EQ(ipc.slotOf(5), 1u);
    EXPECT_NE(ipc.headerAddr(0), ipc.headerAddr(1));
    EXPECT_EQ(ipc.payloadAddr(2, 0), ipc.headerAddr(2) + 64);
}

TEST(IpcBufferDeathTest, MustLiveInInsecureSpace)
{
    System sys{SysConfig::smallTest()};
    Process &sec = sys.createProcess("enclave", Domain::SECURE, 1);
    EXPECT_DEATH(IpcBuffer(sec, 4, 64), "insecure process");
}

TEST(AppRegistry, NineStandardApps)
{
    const auto apps = standardApps(1.0);
    EXPECT_EQ(apps.size(), 9u);
    unsigned os_apps = 0;
    for (const auto &a : apps) {
        os_apps += a.osLevel;
        EXPECT_FALSE(a.name.empty());
        EXPECT_GT(a.interactions, 0u);
        EXPECT_TRUE(a.make);
    }
    EXPECT_EQ(os_apps, 2u);
}

TEST(AppRegistryDeathTest, UnknownAppIsFatal)
{
    EXPECT_EXIT(findApp("<DOOM, GRAPH>", 1.0),
                testing::ExitedWithCode(1), "unknown application");
}
