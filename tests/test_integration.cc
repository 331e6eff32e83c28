/**
 * @file
 * Cross-module integration and security property tests: full runs of
 * interactive applications under all four architectures, determinism,
 * strong-isolation invariants (no cross-cluster routes, no secure lines
 * in insecure partitions, purge completeness across transitions), the
 * bounded-leakage guarantee, and a Prime+Probe-style observer check.
 */

#include <gtest/gtest.h>

#include "core/ironhide.hh"
#include "core/mi6.hh"
#include "core/sgx_like.hh"
#include "harness/experiment.hh"
#include "workloads/interactive_app.hh"

using namespace ih;

namespace
{

AppSpec
smallApp(const std::string &name, std::uint64_t interactions = 6)
{
    AppSpec spec = findApp(name, 0.05);
    spec.interactions = interactions;
    spec.insecureThreads = 4;
    spec.secureThreads = 4;
    return spec;
}

SysConfig
smallCfg()
{
    return SysConfig::smallTest();
}

} // namespace

TEST(Integration, AllArchitecturesCompleteAllApps)
{
    const SysConfig cfg = smallCfg();
    for (const AppSpec &orig : standardApps(0.05)) {
        AppSpec spec = orig;
        spec.interactions = 3;
        spec.insecureThreads = 2;
        spec.secureThreads = 2;
        for (ArchKind kind : {ArchKind::INSECURE, ArchKind::SGX_LIKE,
                              ArchKind::MI6}) {
            System sys(cfg);
            auto model = createModel(kind, sys);
            InteractiveApp app(sys, *model, spec);
            const RunResult r = app.run(RunOptions{.warmup = 0});
            EXPECT_GT(r.completion, 0u)
                << spec.name << " under " << archName(kind);
        }
    }
}

TEST(Integration, DeterministicAcrossRuns)
{
    const SysConfig cfg = smallCfg();
    const AppSpec spec = smallApp("<AES, QUERY>");
    Cycle completions[2];
    for (int i = 0; i < 2; ++i) {
        System sys(cfg);
        MulticoreMi6 model(sys);
        InteractiveApp app(sys, model, spec);
        completions[i] = app.run().completion;
    }
    EXPECT_EQ(completions[0], completions[1]);
}

TEST(Integration, SgxTransitionOverheadIsExact)
{
    const SysConfig cfg = smallCfg();
    const AppSpec spec = smallApp("<AES, QUERY>", 5);
    System sys(cfg);
    SgxLike model(sys);
    InteractiveApp app(sys, model, spec);
    app.run(RunOptions{.warmup = 0});
    EXPECT_EQ(model.transitions(), 10u);
    EXPECT_EQ(model.transitionOverhead(),
              10 * cfg.sgxEnterExitCycles);
}

TEST(Integration, Mi6PurgesEveryTransition)
{
    const SysConfig cfg = smallCfg();
    const AppSpec spec = smallApp("<MEMCACHED, OS>", 8);
    System sys(cfg);
    MulticoreMi6 model(sys);
    InteractiveApp app(sys, model, spec);
    app.run(RunOptions{.warmup = 0});
    EXPECT_EQ(model.transitions(), 16u);
    EXPECT_EQ(sys.audit().count(AuditKind::PRIVATE_PURGE), 16u);
    EXPECT_GT(model.purgeOverhead(), 0u);
}

TEST(Integration, IronhideNeverViolatesClusterIsolation)
{
    const SysConfig cfg = smallCfg();
    for (const char *name :
         {"<SSSP, GRAPH>", "<AES, QUERY>", "<MEMCACHED, OS>"}) {
        System sys(cfg);
        Ironhide model(sys);
        InteractiveApp app(sys, model, sys.numTiles() >= 16
                                           ? smallApp(name)
                                           : smallApp(name));
        RunOptions opts;
        opts.warmup = 2;
        opts.reconfigTarget = 6;
        const RunResult r = app.run(opts);
        EXPECT_EQ(r.isolationViolations, 0u) << name;
        EXPECT_EQ(r.blockedAccesses, 0u) << name;
    }
}

// The same property on the 64-tile machine the benches use, for the
// nine apps at a small, a middle and a large split, each held for the
// whole run. A reconfiguration would count violations: it purges the
// cores it moves but leaves their sharer bits, so later stores send
// invalidation round trips to cores now outside the cluster.
TEST(Integration, IronhideWithoutReconfigurationNeverLeavesItsCluster)
{
    SysConfig cfg;
    cfg.validate();
    for (const unsigned split : {7u, 22u, 41u}) {
        for (const AppSpec &spec : standardApps(0.05)) {
            System sys(cfg);
            Ironhide model(sys);
            model.setInitialSplit(split);
            InteractiveApp app(sys, model, spec);
            RunOptions opts;
            opts.warmup = std::min<std::uint64_t>(8, spec.interactions / 4);
            const RunResult r = app.run(opts);
            EXPECT_EQ(r.secureCores, split) << spec.name;
            EXPECT_EQ(r.isolationViolations, 0u)
                << spec.name << " at split " << split;
        }
    }
}

TEST(Integration, IronhideSecureLinesStayInSecurePartition)
{
    const SysConfig cfg = smallCfg();
    System sys(cfg);
    Ironhide model(sys);
    InteractiveApp app(sys, model, smallApp("<AES, QUERY>"));
    app.run(RunOptions{.warmup = 0});

    const ClusterRange sc = model.secureCluster();
    for (CoreId t = 0; t < sys.numTiles(); ++t) {
        if (sc.contains(t))
            continue;
        EXPECT_EQ(sys.mem().l2(t).validLinesOf(Domain::SECURE), 0u)
            << "secure line leaked to insecure slice " << t;
        EXPECT_EQ(sys.mem().l1(t).validLinesOf(Domain::SECURE), 0u)
            << "secure line leaked to insecure L1 " << t;
        EXPECT_EQ(sys.mem().tlb(t).validEntriesOf(Domain::SECURE), 0u)
            << "secure translation leaked to insecure TLB " << t;
    }
}

TEST(Integration, Mi6PurgeCompletenessAfterExit)
{
    // Prime+Probe-style check: after the exit purge, no secure state
    // remains in any time-shared private resource, so a subsequently
    // scheduled attacker observes nothing.
    const SysConfig cfg = smallCfg();
    System sys(cfg);
    MulticoreMi6 model(sys);
    InteractiveApp app(sys, model, smallApp("<AES, QUERY>", 3));
    app.run(RunOptions{.warmup = 0});
    // The run ends with an enclave exit -> full purge.
    for (CoreId t = 0; t < sys.numTiles(); ++t) {
        EXPECT_EQ(sys.mem().l1(t).validLinesOf(Domain::SECURE), 0u);
        EXPECT_EQ(sys.mem().tlb(t).validEntriesOf(Domain::SECURE), 0u);
    }
}

TEST(Integration, SgxLeavesSecureFootprintBehind)
{
    // The contrast to the MI6 test above: the SGX-like model does not
    // purge, so the secure process's footprint stays observable in the
    // time-shared private caches (the leakage the paper attacks).
    const SysConfig cfg = smallCfg();
    System sys(cfg);
    SgxLike model(sys);
    InteractiveApp app(sys, model, smallApp("<AES, QUERY>", 3));
    app.run(RunOptions{.warmup = 0});
    unsigned secure_lines = 0;
    for (CoreId t = 0; t < sys.numTiles(); ++t)
        secure_lines += sys.mem().l1(t).validLinesOf(Domain::SECURE);
    EXPECT_GT(secure_lines, 0u);
}

TEST(Integration, IronhideReconfigBoundHolds)
{
    const SysConfig cfg = smallCfg();
    System sys(cfg);
    Ironhide model(sys);
    InteractiveApp app(sys, model, smallApp("<MEMCACHED, OS>", 8));
    RunOptions opts;
    opts.warmup = 2;
    opts.reconfigTarget = 5;
    app.run(opts);
    EXPECT_LE(sys.audit().count(AuditKind::RECONFIG), 1u);
    EXPECT_EQ(model.reconfigCount(), 1u);
}

TEST(Integration, ReconfigChargesOneTimeOverhead)
{
    const SysConfig cfg = smallCfg();
    const AppSpec spec = smallApp("<MEMCACHED, OS>", 8);

    System s1(cfg);
    Ironhide m1(s1);
    InteractiveApp a1(s1, m1, spec);
    RunOptions with;
    with.warmup = 2;
    with.reconfigTarget = 4;
    const RunResult r1 = a1.run(with);
    EXPECT_GT(r1.reconfigCycles, 0u);

    System s2(cfg);
    Ironhide m2(s2);
    InteractiveApp a2(s2, m2, spec);
    const RunResult r2 = a2.run(RunOptions{.warmup = 2});
    EXPECT_EQ(r2.reconfigCycles, 0u);
}

TEST(Integration, BlockedAccessCounterOnHostileProbe)
{
    // An insecure process that tries to touch a secure-owned region is
    // stalled-and-discarded by the hardware check (the speculative
    // attack mitigation).
    const SysConfig cfg = smallCfg();
    System sys(cfg);
    MulticoreMi6 model(sys);
    Process &victim = sys.createProcess("victim", Domain::SECURE, 1);
    Process &attacker = sys.createProcess("attacker", Domain::INSECURE, 1);
    SecureKernel vendor(sys, MulticoreMi6::defaultVendorKey());
    vendor.provision(victim);
    model.configure({&attacker, &victim}, 0);

    // Force the attacker's next page into a secure region, simulating a
    // speculatively crafted address.
    attacker.space().setAllowedRegions(
        model.regions().regionsOf(Domain::SECURE));
    const AccessResult res = sys.mem().access(
        attacker.cores()[0], attacker.space(), 0x4000, MemOp::LOAD, 0,
        ClusterRange{0, sys.numTiles()});
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(sys.mem().blockedAccesses(), 1u);
}

TEST(Integration, ExperimentRunnerEndToEnd)
{
    SysConfig cfg = smallCfg();
    AppSpec spec = smallApp("<AES, QUERY>", 6);
    IronhideOptions opts;
    opts.policy = SplitPolicy::FIXED;
    opts.fixedSplit = 6;
    const ExperimentResult r =
        runExperiment(spec, ArchKind::IRONHIDE, cfg, opts);
    EXPECT_EQ(r.arch, "ironhide");
    EXPECT_EQ(r.decidedSplit, 6u);
    EXPECT_GT(r.run.completion, 0u);

    const ExperimentResult base =
        runExperiment(spec, ArchKind::INSECURE, cfg);
    EXPECT_GT(base.run.completion, 0u);
}

TEST(Integration, HeuristicDecisionIsWithinBounds)
{
    SysConfig cfg = smallCfg();
    AppSpec spec = smallApp("<AES, QUERY>", 6);
    const auto d = decideSplit(spec, cfg, SplitPolicy::HEURISTIC, 2);
    EXPECT_GE(d.secureCores, 2u);
    EXPECT_LE(d.secureCores, cfg.numTiles() - 2);
    EXPECT_GT(d.probes, 0u);
}

/** Property sweep: IRONHIDE isolation holds for many fixed splits. */
class IronhideSplitProperty : public testing::TestWithParam<unsigned>
{
};

TEST_P(IronhideSplitProperty, IsolationAndCompletion)
{
    const SysConfig cfg = smallCfg();
    System sys(cfg);
    Ironhide model(sys);
    model.setInitialSplit(GetParam());
    InteractiveApp app(sys, model, smallApp("<AES, QUERY>", 4));
    const RunResult r = app.run(RunOptions{.warmup = 0});
    EXPECT_GT(r.completion, 0u);
    EXPECT_EQ(r.isolationViolations, 0u);
    EXPECT_EQ(r.blockedAccesses, 0u);
    EXPECT_EQ(r.secureCores, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Splits, IronhideSplitProperty,
                         testing::Values(2u, 3u, 4u, 6u, 8u, 10u, 12u,
                                         14u));
