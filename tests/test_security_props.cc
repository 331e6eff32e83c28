/**
 * @file
 * Adversarial security-property tests, complementing the per-module
 * suites: attestation forgery resistance, access-check totality, the
 * shared-controller queueing channel, and the "containment is free"
 * routing property.
 */

#include <gtest/gtest.h>

#include "core/ironhide.hh"
#include "core/mi6.hh"
#include "core/secure_kernel.hh"
#include "mem/mem_controller.hh"
#include "noc/routing.hh"
#include "workloads/attacks.hh"

using namespace ih;

namespace
{

struct Rig
{
    System sys{SysConfig::smallTest()};
    Process *secure = nullptr;

    Rig()
    {
        sys.createProcess("prod", Domain::INSECURE, 2);
        secure = &sys.createProcess("enclave", Domain::SECURE, 2);
        SecureKernel vendor(sys, MulticoreMi6::defaultVendorKey());
        vendor.provision(*secure);
    }
};

} // namespace

/** Flipping any single byte of the signature must fail attestation. */
class SignatureForgery : public testing::TestWithParam<unsigned>
{
};

TEST_P(SignatureForgery, AnyFlippedByteIsRejected)
{
    Rig r;
    SecureKernel kernel(r.sys, MulticoreMi6::defaultVendorKey());
    auto sig = r.secure->signature();
    sig[GetParam()] ^= 0x80;
    r.secure->setSignature(sig);
    Cycle t = 0;
    EXPECT_FALSE(kernel.attest(*r.secure, t));
}

INSTANTIATE_TEST_SUITE_P(EveryFourthByte, SignatureForgery,
                         testing::Values(0u, 4u, 8u, 12u, 16u, 20u, 24u,
                                         28u, 31u));

TEST(SignatureForgery, MeasurementBindsIdentity)
{
    // A different process name (i.e. a different binary image) yields a
    // different measurement, so a signature cannot be transplanted.
    Rig r;
    Process &imposter =
        r.sys.createProcess("enclave-evil", Domain::SECURE, 2);
    imposter.setSignature(r.secure->signature());
    SecureKernel kernel(r.sys, MulticoreMi6::defaultVendorKey());
    Cycle t = 0;
    EXPECT_FALSE(kernel.attest(imposter, t));
    EXPECT_NE(imposter.measurement(), r.secure->measurement());
}

TEST(SignatureForgery, ThreadCountChangesMeasurement)
{
    Rig r;
    Process &variant = r.sys.createProcess("enclave", Domain::SECURE, 3);
    EXPECT_NE(variant.measurement(), r.secure->measurement());
}

/** The region checker must be total: every insecure->secure-region
 *  combination is denied for any partition size. */
class CheckerTotality : public testing::TestWithParam<unsigned>
{
};

TEST_P(CheckerTotality, InsecureNeverReachesSecureRegions)
{
    const unsigned regions = GetParam();
    const RegionOwnership own = RegionOwnership::evenSplit(regions);
    const RegionCheck check = own.makeCheck();
    for (RegionId rg = 0; rg < regions; ++rg) {
        if (own.owner(rg) == Domain::SECURE)
            EXPECT_FALSE(check.allows(Domain::INSECURE, rg)) << rg;
        else
            EXPECT_TRUE(check.allows(Domain::INSECURE, rg)) << rg;
        EXPECT_TRUE(check.allows(Domain::SECURE, rg)) << rg;
    }
}

INSTANTIATE_TEST_SUITE_P(RegionCounts, CheckerTotality,
                         testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(SharedController, InsecureLoadDelaysSecureRead)
{
    // A controller shared by both domains queues their reads in one
    // issue schedule: insecure load visibly delays a later secure read
    // (the observable channel MI6 purges and IRONHIDE partitions away).
    const SysConfig cfg = SysConfig::smallTest();
    auto secure_latency = [&](unsigned burst) {
        MemController mc(0, cfg);
        for (unsigned i = 0; i < burst; ++i)
            mc.serviceRead(0x400000 + i * 64, 0); // insecure burst
        return mc.serviceRead(0x1000, 0);         // the secure read
    };
    EXPECT_GT(secure_latency(64), secure_latency(0));
}

/** Containment costs no hops: for every split, the policy-selected
 *  order yields minimal (Manhattan) path lengths. */
class ContainmentIsFree : public testing::TestWithParam<unsigned>
{
};

TEST_P(ContainmentIsFree, SelectedRoutesAreMinimal)
{
    SysConfig cfg;
    cfg.validate();
    const Topology topo(cfg);
    const Router router(topo);
    const unsigned split = GetParam();
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};
    for (const ClusterRange &cl : {secure, insecure}) {
        for (CoreId s = cl.first; s < cl.first + cl.count; s += 3) {
            for (CoreId d = cl.first; d < cl.first + cl.count; d += 5) {
                const auto p =
                    router.path(s, d, router.selectOrder(s, cl));
                EXPECT_EQ(p.size(), topo.hopDistance(s, d) + 1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Splits, ContainmentIsFree,
                         testing::Values(2u, 7u, 13u, 22u, 32u, 41u,
                                         55u, 62u));

TEST(PurgeScope, SecureAppSwitchLeavesInsecureClusterAlone)
{
    // Mutually distrusting secure processes (different applications)
    // force a secure-cluster purge; the insecure cluster must keep all
    // of its state (it never changes hands).
    Rig r;
    Ironhide model(r.sys);
    Process *ins = r.sys.processes()[0].get();
    model.configure({ins, r.secure}, 0);

    const unsigned split = model.secureCoreCount();
    for (CoreId c = 0; c < r.sys.numTiles(); ++c) {
        r.sys.mem().l1(c).insert(
            0x5000 + c * 64,
            c < split ? r.secure->id() : ins->id(),
            c < split ? Domain::SECURE : Domain::INSECURE);
    }
    model.secureAppSwitch(0);
    for (CoreId c = 0; c < r.sys.numTiles(); ++c) {
        if (c < split)
            EXPECT_EQ(r.sys.mem().l1(c).validLines(), 0u) << c;
        else
            EXPECT_EQ(r.sys.mem().l1(c).validLines(), 1u) << c;
    }
}

TEST(PurgeScope, DrainTouchesOnlyGivenControllers)
{
    Rig r;
    r.sys.mem().mc(0).acceptWrite(0x0, 0);
    r.sys.mem().mc(1).acceptWrite(0x4000000, 0);
    r.sys.mem().drainControllers({0}, 100);
    EXPECT_EQ(r.sys.mem().mc(0).pendingWrites(), 0u);
    EXPECT_EQ(r.sys.mem().mc(1).pendingWrites(), 1u);
}

namespace
{

/** Everything an attacker can observe about cache/TLB residency. */
struct StateCensus
{
    std::vector<unsigned> l1Lines, l2Lines, tlbInsecure, tlbSecure;

    static StateCensus
    of(System &sys)
    {
        StateCensus c;
        for (CoreId t = 0; t < sys.numTiles(); ++t) {
            c.l1Lines.push_back(sys.mem().l1(t).validLines());
            c.l2Lines.push_back(sys.mem().l2(t).validLines());
            c.tlbInsecure.push_back(
                sys.mem().tlb(t).validEntriesOf(Domain::INSECURE));
            c.tlbSecure.push_back(
                sys.mem().tlb(t).validEntriesOf(Domain::SECURE));
        }
        return c;
    }

    bool
    operator==(const StateCensus &o) const
    {
        return l1Lines == o.l1Lines && l2Lines == o.l2Lines &&
               tlbInsecure == o.tlbInsecure && tlbSecure == o.tlbSecure;
    }
};

} // namespace

/**
 * Blocked-access hygiene: a probe rejected by the region check must not
 * change any attacker-observable microarchitectural state — no cache
 * line moves, no TLB entry is installed or evicted, and a previously
 * warm address is exactly as warm afterwards (same latency, same
 * hit flags, so the way predictor was not retrained either). The one
 * and only architectural trace is the ACCESS_BLOCKED audit counter.
 * Covers both rejection paths: the inline predicted-TLB-hit path and
 * the slow path (fresh translation, check before any TLB fill).
 */
TEST(BlockedAccessHygiene, BlockedProbeLeavesNoObservableState)
{
    Rig r;
    Ironhide model(r.sys);
    Process *ins = r.sys.processes()[0].get();
    model.configure({ins, r.secure}, 0);

    MemorySystem &mem = r.sys.mem();
    const CoreId core = ins->cores().front();
    const ClusterRange cl = ins->cluster();
    AddressSpace &space = ins->space();

    // Warm attacker state: a few pages' worth of loads (staggered line
    // offsets so the small L1 keeps every line), then a repeat of the
    // first address to capture the steady-state hit signature.
    const VAddr kWarmVa = 0x10000;
    Cycle t = 0;
    for (unsigned i = 0; i < 8; ++i) {
        t = mem.access(core, space, kWarmVa + i * (0x1000 + 64),
                       MemOp::LOAD, t, cl)
                .finish;
    }
    const AccessResult warm_before =
        mem.access(core, space, kWarmVa, MemOp::LOAD, 1000, cl);
    EXPECT_TRUE(warm_before.l1Hit);
    EXPECT_TRUE(warm_before.tlbHit);

    const StateCensus before = StateCensus::of(r.sys);
    const std::uint64_t blocked_before = mem.blockedAccesses();
    const std::uint64_t audit_before =
        r.sys.audit().count(AuditKind::ACCESS_BLOCKED);
    const std::size_t events_before = r.sys.audit().events().size();

    // Deny everything (an empty ownership table has no region in range)
    // and probe: once through the inline path (warm VA, predicted TLB
    // hit) and once through the slow path (fresh VA, page walk, no prior
    // TLB entry).
    mem.setRegionCheck(RegionCheck::fromTable({}));
    const AccessResult b1 =
        mem.access(core, space, kWarmVa, MemOp::LOAD, 2000, cl);
    EXPECT_TRUE(b1.blocked);
    EXPECT_TRUE(b1.tlbHit);
    const AccessResult b2 =
        mem.access(core, space, 0x900000, MemOp::STORE, 3000, cl);
    EXPECT_TRUE(b2.blocked);
    EXPECT_FALSE(b2.tlbHit);

    // No resident line and no TLB entry moved anywhere in the machine.
    EXPECT_TRUE(StateCensus::of(r.sys) == before);

    // The audited counter is the only delta: +2 blocked accesses, no
    // new full audit records (ACCESS_BLOCKED is count-only, so the
    // hot path never allocates).
    EXPECT_EQ(mem.blockedAccesses(), blocked_before + 2);
    EXPECT_EQ(r.sys.audit().count(AuditKind::ACCESS_BLOCKED),
              audit_before + 2);
    EXPECT_EQ(r.sys.audit().events().size(), events_before);

    // The warm address is exactly as warm as before the blocked probes:
    // identical hit flags and identical latency (an evicted line, a
    // dropped TLB entry or a retrained way predictor would all show).
    mem.setRegionCheck(RegionCheck());
    const AccessResult warm_after =
        mem.access(core, space, kWarmVa, MemOp::LOAD, 4000, cl);
    EXPECT_TRUE(warm_after.l1Hit);
    EXPECT_TRUE(warm_after.tlbHit);
    EXPECT_EQ(warm_after.finish - 4000, warm_before.finish - 1000);
}

/**
 * The paper's security story as a CI gate, via the first-class attack
 * scenarios: the strong-isolation architectures leak zero bits on
 * every channel; the SGX-like baseline measurably leaks where it
 * shares structures. Small config + few trials keeps each cell in the
 * low milliseconds.
 */
class AttackLeakage : public testing::TestWithParam<AttackChannel>
{
  protected:
    static LeakageResult
    run(ArchKind kind, AttackChannel channel)
    {
        AttackRunOptions opts;
        opts.trials = 8;
        return runAttack(channel, kind, SysConfig::smallTest(), opts);
    }
};

TEST_P(AttackLeakage, StrongIsolationLeaksZeroBitsOnEveryChannel)
{
    for (const ArchKind kind : {ArchKind::MI6, ArchKind::IRONHIDE}) {
        const LeakageResult r = run(kind, GetParam());
        EXPECT_EQ(r.leakBitsPerTrial, 0.0)
            << r.arch << " leaks on " << r.channel;
        EXPECT_DOUBLE_EQ(r.accuracy, 0.5)
            << r.arch << " distinguisher beats guessing on " << r.channel;
        EXPECT_EQ(r.signal, 0.0)
            << r.arch << " class means differ on " << r.channel;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, AttackLeakage,
    testing::Values(AttackChannel::LLC_OCCUPANCY,
                    AttackChannel::TLB_PRIME_PROBE,
                    AttackChannel::NOC_LINK_TIMING,
                    AttackChannel::MC_CONTENTION),
    [](const testing::TestParamInfo<AttackChannel> &info) {
        return std::string(attackChannelName(info.param));
    });

TEST_P(AttackLeakage, InsecureControlVictimLeaksOnEveryChannel)
{
    // The unprotected baseline is the suite's positive control: every
    // channel's distinguisher must read the victim's secret when
    // nothing defends it, or the zero-leakage results above prove
    // nothing about the defenses.
    const LeakageResult r = run(ArchKind::INSECURE, GetParam());
    EXPECT_GT(r.leakBitsPerTrial, 0.0)
        << "vacuous attack on " << r.channel;
    EXPECT_GT(r.accuracy, 0.5) << r.channel;
    EXPECT_GT(r.signal, 0.0) << r.channel;
}

TEST(AttackLeakage, SgxLikeLeaksOnSharedLlcAndDram)
{
    AttackRunOptions opts;
    opts.trials = 8;
    for (const AttackChannel c :
         {AttackChannel::LLC_OCCUPANCY, AttackChannel::MC_CONTENTION}) {
        const LeakageResult r =
            runAttack(c, ArchKind::SGX_LIKE, SysConfig::smallTest(), opts);
        EXPECT_GT(r.leakBitsPerTrial, 0.0)
            << "vacuous attack on " << r.channel;
        EXPECT_GT(r.accuracy, 0.5) << r.channel;
        EXPECT_GT(r.bitsPerSec, 0.0) << r.channel;
    }
}
