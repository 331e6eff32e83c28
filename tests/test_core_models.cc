/**
 * @file
 * Tests of the security-architecture layer: audit log, secure kernel
 * attestation, the enclave entry/exit protocol, purge engine, region
 * ownership, the four architecture models' partitioning decisions,
 * IRONHIDE's dynamic reconfiguration (and its leakage bound), the
 * re-allocation predictor and the split decisions its probe runs drive,
 * and the exact relations between architectures.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "core/access_check.hh"
#include "core/insecure.hh"
#include "core/ironhide.hh"
#include "core/mi6.hh"
#include "core/realloc_predictor.hh"
#include "core/sgx_like.hh"
#include "harness/experiment.hh"
#include "workloads/interactive_app.hh"

using namespace ih;

namespace
{

struct Rig
{
    System sys{SysConfig::smallTest()};
    Process *insecure = nullptr;
    Process *secure = nullptr;

    Rig()
    {
        insecure = &sys.createProcess("prod", Domain::INSECURE, 4);
        secure = &sys.createProcess("enclave", Domain::SECURE, 4);
        SecureKernel vendor(sys, MulticoreMi6::defaultVendorKey());
        vendor.provision(*secure);
    }

    std::vector<Process *>
    procs()
    {
        return {insecure, secure};
    }
};

} // namespace

TEST(AuditLog, CountsAndStructuralEvents)
{
    AuditLog log;
    log.record(AuditKind::ENCLAVE_ENTER, 10, 1);
    log.record(AuditKind::ENCLAVE_ENTER, 20, 1);
    log.record(AuditKind::RECONFIG, 30, INVALID_PROC, "secure_cores=8");
    EXPECT_EQ(log.count(AuditKind::ENCLAVE_ENTER), 2u);
    EXPECT_EQ(log.count(AuditKind::RECONFIG), 1u);
    EXPECT_EQ(log.events().size(), 1u); // only structural events stored
    EXPECT_NE(log.toString().find("secure_cores=8"), std::string::npos);
    log.clear();
    EXPECT_EQ(log.count(AuditKind::ENCLAVE_ENTER), 0u);
}

TEST(SecureKernel, AttestsProvisionedProcess)
{
    Rig r;
    SecureKernel kernel(r.sys, MulticoreMi6::defaultVendorKey());
    Cycle t = 0;
    EXPECT_TRUE(kernel.attest(*r.secure, t));
    EXPECT_EQ(t, r.sys.config().attestCycles);
    EXPECT_EQ(kernel.attestedCount(), 1u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::ATTEST_OK), 1u);
}

TEST(SecureKernel, RejectsTamperedSignature)
{
    Rig r;
    SecureKernel kernel(r.sys, MulticoreMi6::defaultVendorKey());
    auto sig = r.secure->signature();
    sig[0] ^= 0x01;
    r.secure->setSignature(sig);
    Cycle t = 0;
    EXPECT_FALSE(kernel.attest(*r.secure, t));
    EXPECT_EQ(t, 0u); // no time charged on failure
    EXPECT_EQ(r.sys.audit().count(AuditKind::ATTEST_FAIL), 1u);
}

TEST(SecureKernel, RejectsWrongVendorKey)
{
    Rig r;
    SecureKernel::Key other{};
    other[5] = 0x99;
    SecureKernel kernel(r.sys, other);
    Cycle t = 0;
    EXPECT_FALSE(kernel.attest(*r.secure, t));
}

TEST(EnclaveDeathTest, EveryModelRejectsDoubleEntryAndStrayExit)
{
    for (ArchKind kind : {ArchKind::INSECURE, ArchKind::SGX_LIKE,
                          ArchKind::MI6, ArchKind::IRONHIDE}) {
        Rig r;
        const std::unique_ptr<SecurityModel> model =
            createModel(kind, r.sys);
        model->configure(r.procs(), 0);
        EXPECT_DEATH(model->enclaveExit(*r.secure, 0),
                     "enclave exit without entry")
            << archName(kind);
        const Cycle t = model->enclaveEnter(*r.secure, 0);
        EXPECT_DEATH(model->enclaveEnter(*r.secure, t),
                     "double enclave entry")
            << archName(kind);
        EXPECT_DEATH(model->enclaveExit(*r.insecure, t),
                     "enclave exit without entry")
            << archName(kind);
        model->enclaveExit(*r.secure, t);
        EXPECT_EQ(model->transitions(), 2u) << archName(kind);
    }
}

TEST(RegionOwnership, EvenSplitAndChecker)
{
    const RegionOwnership own = RegionOwnership::evenSplit(8);
    EXPECT_EQ(own.regionsOf(Domain::SECURE).size(), 4u);
    EXPECT_EQ(own.regionsOf(Domain::INSECURE).size(), 4u);
    const RegionCheck check = own.makeCheck();
    // Secure may touch everything (shared IPC data is insecure-owned).
    EXPECT_TRUE(check.allows(Domain::SECURE, 0));
    EXPECT_TRUE(check.allows(Domain::SECURE, 7));
    // Insecure must never touch secure-owned regions.
    EXPECT_FALSE(check.allows(Domain::INSECURE, 0));
    EXPECT_TRUE(check.allows(Domain::INSECURE, 7));
    EXPECT_FALSE(check.allows(Domain::INSECURE, 999)); // out of range
}

TEST(RegionOwnership, ValueCheckMatchesRuleOnAllPairs)
{
    // The table check installed by the production models must follow
    // the stated rule on every domain x region pair, for assorted
    // ownership maps: an out-of-range region is denied to both domains;
    // the secure domain may touch every region; the insecure domain
    // only insecure-owned ones.
    for (unsigned regions : {1u, 2u, 5u, 8u, 16u}) {
        RegionOwnership own(regions);
        for (RegionId r = 0; r < regions; ++r)
            own.assign(r, r % 3 == 0 ? Domain::SECURE : Domain::INSECURE);
        const RegionCheck check = own.makeCheck();
        EXPECT_TRUE(check.enabled());
        for (Domain d : {Domain::SECURE, Domain::INSECURE}) {
            for (RegionId r = 0; r < regions + 3; ++r) {
                const bool rule =
                    r < regions && (d == Domain::SECURE ||
                                    own.owner(r) == Domain::INSECURE);
                EXPECT_EQ(check.allows(d, r), rule)
                    << "regions=" << regions << " domain="
                    << static_cast<int>(d) << " region=" << r;
            }
        }
    }
}

TEST(RegionCheck, DefaultAllowsEverything)
{
    const RegionCheck off;
    EXPECT_FALSE(off.enabled());
    EXPECT_TRUE(off.allows(Domain::INSECURE, 12345));
}

TEST(PurgeEngine, AccountsCriticalPathCycles)
{
    Rig r;
    PurgeEngine purge(r.sys);
    const Cycle done = purge.fullPurge({0, 1}, {0}, 1000);
    EXPECT_GT(done, 1000u);
    EXPECT_EQ(purge.purgeCycles(), done - 1000);
    EXPECT_EQ(purge.purgeEvents(), 1u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::PRIVATE_PURGE), 1u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::MC_DRAIN), 1u);
}

TEST(InsecureModel, NoCostsNoPartitioning)
{
    Rig r;
    InsecureBaseline model(r.sys);
    model.configure(r.procs(), 0);
    EXPECT_EQ(model.enclaveEnter(*r.secure, 500), 500u);
    EXPECT_EQ(model.enclaveExit(*r.secure, 600), 600u);
    EXPECT_EQ(model.transitionOverhead(), 0u);
    EXPECT_EQ(r.secure->space().homingMode(),
              HomingMode::HASH_FOR_HOMING);
    EXPECT_EQ(r.secure->space().allowedRegions().size(),
              r.sys.config().numRegions);
}

TEST(SgxModel, ConstantEntryExitCost)
{
    Rig r;
    SgxLike model(r.sys);
    model.configure(r.procs(), 0);
    const Cycle c = r.sys.config().sgxEnterExitCycles;
    EXPECT_EQ(model.enclaveEnter(*r.secure, 0), c);
    EXPECT_EQ(model.enclaveExit(*r.secure, c), 2 * c);
    EXPECT_EQ(model.transitionOverhead(), 2 * c);
    EXPECT_EQ(model.purgeOverhead(), 0u); // SGX never purges caches
}

namespace
{

/** What one app run under one architecture touched and retired. */
struct ArchRun
{
    RunResult run;
    std::map<std::string, std::uint64_t> access;
    std::uint64_t insecureInstructions = 0;
    std::uint64_t secureInstructions = 0;
};

/** Run @p spec alone on a fresh small machine under @p Model. */
template <typename Model>
ArchRun
runUnder(const AppSpec &spec)
{
    System sys{SysConfig::smallTest()};
    Model model{sys};
    InteractiveApp app(sys, model, spec);
    ArchRun out;
    out.run = app.run(RunOptions{.warmup = 2});
    // Counts of what the accesses did in the L1s, L2s, TLBs and
    // directory. Time-dependent counters (link stalls, controller
    // queue waits) are left out: a shift in time may move them.
    for (const char *name :
         {"accesses", "tlb_misses", "blocked_accesses", "l1_accesses",
          "l1_misses", "l2_accesses", "l2_misses", "upgrades",
          "invalidations_sent", "dirty_forwards", "l1_writebacks",
          "l2_evictions", "back_invalidations"}) {
        out.access[name] = sys.mem().stats().value(name);
    }
    out.insecureInstructions =
        app.insecureProc().stats().value("instructions");
    out.secureInstructions = app.secureProc().stats().value("instructions");
    return out;
}

} // namespace

TEST(CrossArch, SgxIsTheBaselinePlusItsTransitionCost)
{
    // SGX-like is the insecure baseline plus a fixed cost per enclave
    // transition: it partitions, purges and re-homes nothing. So on
    // every app the two make the same cache, TLB and directory events
    // and retire the same instructions, and SGX's timed region is longer
    // by at least 0 and at most its transition cycles (some of them
    // overlap the producer's run-ahead).
    for (const AppSpec &orig : standardApps(0.05)) {
        AppSpec spec = orig;
        spec.interactions = 6;
        spec.insecureThreads = 4;
        spec.secureThreads = 4;
        const ArchRun base = runUnder<InsecureBaseline>(spec);
        const ArchRun sgx = runUnder<SgxLike>(spec);
        EXPECT_EQ(base.access, sgx.access) << spec.name;
        EXPECT_EQ(base.run.instructions, sgx.run.instructions) << spec.name;
        EXPECT_EQ(base.insecureInstructions, sgx.insecureInstructions)
            << spec.name;
        EXPECT_EQ(base.secureInstructions, sgx.secureInstructions)
            << spec.name;
        EXPECT_EQ(base.run.transitions, sgx.run.transitions) << spec.name;
        EXPECT_EQ(base.run.transitionCycles, 0u) << spec.name;
        EXPECT_GT(sgx.run.transitionCycles, 0u) << spec.name;
        ASSERT_GE(sgx.run.completion, base.run.completion) << spec.name;
        EXPECT_LE(sgx.run.completion - base.run.completion,
                  sgx.run.transitionCycles)
            << spec.name;
    }
}

TEST(Mi6Model, StaticDisjointPartitions)
{
    Rig r;
    MulticoreMi6 model(r.sys);
    model.configure(r.procs(), 0);
    const auto &s_slices = r.secure->space().allowedSlices();
    const auto &i_slices = r.insecure->space().allowedSlices();
    EXPECT_EQ(s_slices.size() + i_slices.size(), r.sys.numTiles());
    for (CoreId s : s_slices)
        EXPECT_EQ(std::count(i_slices.begin(), i_slices.end(), s), 0);

    const auto &s_regions = r.secure->space().allowedRegions();
    const auto &i_regions = r.insecure->space().allowedRegions();
    for (RegionId rr : s_regions)
        EXPECT_EQ(std::count(i_regions.begin(), i_regions.end(), rr), 0);
    EXPECT_EQ(r.secure->space().homingMode(), HomingMode::LOCAL_HOMING);
}

TEST(Mi6Model, EveryTransitionPurges)
{
    Rig r;
    MulticoreMi6 model(r.sys);
    model.configure(r.procs(), 0);
    Cycle t = model.enclaveEnter(*r.secure, 0);
    EXPECT_GT(t, 0u);
    const Cycle after_first = model.purgeOverhead();
    EXPECT_GT(after_first, 0u);
    t = model.enclaveExit(*r.secure, t);
    EXPECT_GT(model.purgeOverhead(), after_first);
    EXPECT_EQ(model.transitions(), 2u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::PRIVATE_PURGE), 2u);
}

TEST(Mi6ModelDeathTest, RefusesTamperedProcess)
{
    Rig r;
    auto sig = r.secure->signature();
    sig[3] ^= 0xFF;
    r.secure->setSignature(sig);
    MulticoreMi6 model(r.sys);
    EXPECT_EXIT(model.configure(r.procs(), 0), testing::ExitedWithCode(1),
                "refused unattested");
}

TEST(IronhideModel, ClustersAreDisjointAndConfined)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0);
    EXPECT_TRUE(model.spatial());
    EXPECT_EQ(model.secureCoreCount(), r.sys.numTiles() / 2);

    const ClusterRange sc = model.secureCluster();
    const ClusterRange ic = model.insecureCluster();
    EXPECT_EQ(sc.count + ic.count, r.sys.numTiles());
    for (CoreId c : r.secure->cores())
        EXPECT_TRUE(sc.contains(c));
    for (CoreId c : r.insecure->cores())
        EXPECT_TRUE(ic.contains(c));
    // Cluster-confined network scope.
    EXPECT_EQ(r.secure->cluster().first, sc.first);
    EXPECT_EQ(r.secure->cluster().count, sc.count);
}

TEST(IronhideModel, ControllersPartitionedByCluster)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0);
    const auto smc = model.secureMcs();
    const auto imc = model.insecureMcs();
    EXPECT_GE(smc.size(), 1u);
    EXPECT_GE(imc.size(), 1u);
    EXPECT_EQ(smc.size() + imc.size(), r.sys.mem().numMcs());
    // Every secure region routes to a secure-cluster controller.
    for (RegionId reg : model.regions().regionsOf(Domain::SECURE)) {
        const McId mc = r.sys.mem().regionController(reg);
        EXPECT_NE(std::find(smc.begin(), smc.end(), mc), smc.end());
    }
}

TEST(IronhideModel, EntryExitAreFree)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0);
    EXPECT_EQ(model.enclaveEnter(*r.secure, 777), 777u);
    EXPECT_EQ(model.enclaveExit(*r.secure, 888), 888u);
    EXPECT_EQ(model.transitionOverhead(), 0u);
    EXPECT_EQ(model.purgeOverhead(), 0u);
}

TEST(IronhideModel, ReconfigureMovesCoresAndPurgesThem)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0); // 8/8 on the 4x4 test mesh
    // Dirty a core that will change ownership (core 6 moves when the
    // split shrinks to 4).
    r.sys.mem().l1(6).insert(0x1000, r.secure->id(), Domain::SECURE);

    const Cycle done = model.reconfigure(4, 1000);
    EXPECT_GT(done, 1000u);
    EXPECT_EQ(model.secureCoreCount(), 4u);
    EXPECT_EQ(model.reconfigCount(), 1u);
    EXPECT_EQ(model.reconfigOverhead(), done - 1000);
    EXPECT_EQ(r.sys.mem().l1(6).validLines(), 0u); // scrubbed
    EXPECT_EQ(r.secure->cores().size(), 4u);
    EXPECT_EQ(r.insecure->cores().size(), 12u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::RECONFIG), 1u);
}

TEST(IronhideModel, ReconfigureToSameSplitIsFreeAndUnlogged)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0);
    EXPECT_EQ(model.reconfigure(8, 500), 500u);
    EXPECT_EQ(model.reconfigCount(), 0u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::RECONFIG), 0u);
}

TEST(IronhideModel, LeakageBoundIsOnePerInvocation)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0);
    model.reconfigure(4, 0);
    // A second reconfiguration exceeds the bound; it is executed (for
    // ablations) but the audit trail records the extra event.
    model.reconfigure(6, 100000);
    EXPECT_EQ(model.reconfigCount(), 2u);
    EXPECT_EQ(r.sys.audit().count(AuditKind::RECONFIG), 2u);
}

TEST(IronhideModel, InitialSplitOverride)
{
    Rig r;
    Ironhide model(r.sys);
    model.setInitialSplit(3);
    model.configure(r.procs(), 0);
    EXPECT_EQ(model.secureCoreCount(), 3u);
}

TEST(IronhideModel, SecureAppSwitchPurgesSecureCluster)
{
    Rig r;
    Ironhide model(r.sys);
    model.configure(r.procs(), 0);
    r.sys.mem().l1(0).insert(0x2000, r.secure->id(), Domain::SECURE);
    r.sys.mem().l1(15).insert(0x3000, r.insecure->id(),
                              Domain::INSECURE);
    model.secureAppSwitch(0);
    EXPECT_EQ(r.sys.mem().l1(0).validLines(), 0u);
    EXPECT_EQ(r.sys.mem().l1(15).validLines(), 1u); // insecure untouched
}

TEST(ModelFactory, CreatesEveryArch)
{
    Rig r;
    for (ArchKind k : {ArchKind::INSECURE, ArchKind::SGX_LIKE,
                       ArchKind::MI6, ArchKind::IRONHIDE}) {
        auto model = createModel(k, r.sys);
        ASSERT_NE(model, nullptr);
        EXPECT_STREQ(model->name().c_str(), archName(k));
    }
}

TEST(ReallocPredictor, GradientFindsConvexMinimum)
{
    ReallocPredictor pred(2, 62);
    const auto f = [](unsigned s) {
        const double d = static_cast<double>(s) - 41.0;
        return 100.0 + d * d;
    };
    const auto d = pred.gradientSearch(32, f);
    EXPECT_EQ(d.secureCores, 41u);
    EXPECT_GT(d.probes, 0u);
}

TEST(ReallocPredictor, GradientSearchEvaluatesEachSplitOnce)
{
    // From 32 the walk steps to 39, then looks back and re-probes 32;
    // later rounds re-cross more splits. Each split reaches the probe
    // function once, and probes still counts every evaluation.
    ReallocPredictor pred(2, 62);
    std::map<unsigned, unsigned> calls;
    const auto f = [&calls](unsigned s) {
        ++calls[s];
        const double d = static_cast<double>(s) - 41.0;
        return 100.0 + d * d;
    };
    const auto d = pred.gradientSearch(32, f);
    EXPECT_EQ(d.secureCores, 41u);
    EXPECT_EQ(d.predicted, 100.0);
    for (const auto &[split, n] : calls)
        EXPECT_EQ(n, 1u) << "split " << split;
    EXPECT_EQ(calls.size(), 8u);
    EXPECT_EQ(d.probes, 16u);
}

TEST(ReallocPredictor, GradientRespectsBounds)
{
    ReallocPredictor pred(2, 62);
    const auto f = [](unsigned s) { return static_cast<double>(s); };
    EXPECT_EQ(pred.gradientSearch(32, f).secureCores, 2u);
    const auto g = [](unsigned s) { return 100.0 - s; };
    EXPECT_EQ(pred.gradientSearch(32, g).secureCores, 62u);
}

TEST(ReallocPredictor, OptimalSweepsExhaustively)
{
    ReallocPredictor pred(2, 62);
    const auto f = [](unsigned s) {
        return s == 17 ? 1.0 : 2.0 + s; // a needle the gradient can miss
    };
    const auto d = pred.optimalSweep(f);
    EXPECT_EQ(d.secureCores, 17u);
    EXPECT_EQ(d.probes, 61u);
}

TEST(ReallocPredictor, VariationIsPercentOfMachine)
{
    ReallocPredictor pred(2, 62);
    EXPECT_EQ(pred.withVariation(32, +25, 64), 48u);
    EXPECT_EQ(pred.withVariation(32, -25, 64), 16u);
    EXPECT_EQ(pred.withVariation(32, +5, 64), 35u);
    EXPECT_EQ(pred.withVariation(60, +25, 64), 62u); // clamped
    EXPECT_EQ(pred.withVariation(4, -25, 64), 2u);   // clamped
}

// ---- Split decisions on probe runs ----------------------------------------

namespace
{

/** A fast app spec so probe-heavy split decisions stay quick. */
AppSpec
tinyAesQuery()
{
    AppSpec spec = findApp("<AES, QUERY>", 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 2;
    spec.secureThreads = 2;
    return spec;
}

} // namespace

TEST(DecideSplit, HeuristicAndOptimalKeepTheirDecisions)
{
    // The exact decisions, probe counts and probed completions, so a
    // change to how probes are evaluated cannot move them unnoticed.
    // Each probe builds the app once, so make() counts simulations.
    const SysConfig cfg = SysConfig::smallTest();
    AppSpec app = tinyAesQuery();
    unsigned sims = 0;
    app.make = [make = app.make, &sims](const SysConfig &c) {
        ++sims;
        return make(c);
    };
    const ReallocPredictor::Decision h =
        decideSplit(app, cfg, SplitPolicy::HEURISTIC, 2);
    EXPECT_EQ(h.secureCores, 8u);
    EXPECT_EQ(h.probes, 3u); // step 1 from 8: 9 and 7 are both worse
    EXPECT_EQ(h.predicted, 46613.0);
    EXPECT_EQ(sims, 3u);

    sims = 0;
    const ReallocPredictor::Decision o =
        decideSplit(app, cfg, SplitPolicy::OPTIMAL, 2);
    EXPECT_EQ(o.secureCores, 3u);
    EXPECT_EQ(o.predicted, 43676.0);
    EXPECT_EQ(o.probes, 13u); // every legal split, 2..14
    EXPECT_EQ(sims, 13u);
}

TEST(DecideSplit, OptimalNeverLosesToTheHeuristicOnProbes)
{
    // The sweep probes every split the heuristic can, and a probe is a
    // pure function of its split, so the oracle's probed completion is
    // never above the heuristic's.
    const SysConfig cfg = SysConfig::smallTest();
    for (const AppSpec &app : standardApps(0.05)) {
        SCOPED_TRACE(app.name);
        const ReallocPredictor::Decision h =
            decideSplit(app, cfg, SplitPolicy::HEURISTIC, 2);
        const ReallocPredictor::Decision o =
            decideSplit(app, cfg, SplitPolicy::OPTIMAL, 2);
        EXPECT_EQ(o.probes, 13u);
        EXPECT_LE(o.predicted, h.predicted)
            << "optimal " << o.secureCores << " vs heuristic "
            << h.secureCores;
    }
}

TEST(DecideSplit, AThrowingProbeSurfacesItsOwnError)
{
    AppSpec broken = tinyAesQuery();
    broken.make = [](const SysConfig &) -> WorkloadPair {
        throw std::runtime_error("probe boom");
    };
    const SysConfig cfg = SysConfig::smallTest();
    for (SplitPolicy policy : {SplitPolicy::HEURISTIC, SplitPolicy::OPTIMAL}) {
        try {
            decideSplit(broken, cfg, policy, 2);
            ADD_FAILURE() << "expected the probe failure";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "probe boom");
        }
    }
}
