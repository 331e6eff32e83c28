/**
 * @file
 * Unit tests of the attack-scenario framework: the leakage analysis
 * math, the balanced secret-bit schedule, end-to-end run determinism,
 * and the SweepGrid TLB-size axis the abl_tlb bench uses.
 */

#include <gtest/gtest.h>

#include "harness/sweep.hh"
#include "workloads/attacks.hh"

using namespace ih;

namespace
{

TrialSample
sample(unsigned bit, std::initializer_list<double> obs)
{
    TrialSample s;
    s.bit = bit;
    s.obs = obs;
    s.cycles = 100;
    return s;
}

} // namespace

TEST(AnalyzeTrials, PerfectSeparationIsOneBitPerTrial)
{
    // Class 0 observes {0}, class 1 observes {10}, consistently in both
    // the calibration and the evaluation half.
    std::vector<TrialSample> t;
    for (int half = 0; half < 2; ++half) {
        t.push_back(sample(0, {0.0}));
        t.push_back(sample(1, {10.0}));
    }
    const LeakageResult r = analyzeTrials("ch", "arch", t);
    EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
    EXPECT_DOUBLE_EQ(r.leakBitsPerTrial, 1.0);
    EXPECT_DOUBLE_EQ(r.signal, 10.0);
    EXPECT_GT(r.bitsPerSec, 0.0);
}

TEST(AnalyzeTrials, IdenticalObservationsAreBlind)
{
    // Both classes observe the same vector: exact ties score 0.5, so
    // the distinguisher is exactly at guessing and the capacity is 0.
    std::vector<TrialSample> t;
    for (int half = 0; half < 2; ++half) {
        t.push_back(sample(0, {7.0, 7.0}));
        t.push_back(sample(1, {7.0, 7.0}));
    }
    const LeakageResult r = analyzeTrials("ch", "arch", t);
    EXPECT_DOUBLE_EQ(r.accuracy, 0.5);
    EXPECT_DOUBLE_EQ(r.leakBitsPerTrial, 0.0);
    EXPECT_DOUBLE_EQ(r.signal, 0.0);
    EXPECT_DOUBLE_EQ(r.bitsPerSec, 0.0);
}

TEST(AnalyzeTrials, AntiCorrelatedEvaluationClampsToZero)
{
    // The evaluation half contradicts the calibration half: accuracy 0,
    // but capacity clamps at 0 rather than crediting the inversion (a
    // distinguisher below guessing is still "no proven leak" for the
    // gate — it must not report negative bits).
    std::vector<TrialSample> t;
    t.push_back(sample(0, {0.0}));
    t.push_back(sample(1, {10.0}));
    t.push_back(sample(0, {10.0}));
    t.push_back(sample(1, {0.0}));
    const LeakageResult r = analyzeTrials("ch", "arch", t);
    EXPECT_DOUBLE_EQ(r.accuracy, 0.0);
    EXPECT_DOUBLE_EQ(r.leakBitsPerTrial, 0.0);
    EXPECT_FALSE(r.leaks());
}

TEST(BalancedSecretBits, EachHalfIsBalanced)
{
    for (const unsigned trials : {4u, 8u, 24u, 64u}) {
        const std::vector<unsigned> bits =
            balancedSecretBits(trials, 0x1234);
        ASSERT_EQ(bits.size(), trials);
        for (int half = 0; half < 2; ++half) {
            unsigned ones = 0;
            for (unsigned i = 0; i < trials / 2; ++i)
                ones += bits[half * trials / 2 + i];
            EXPECT_EQ(ones, trials / 4) << "trials=" << trials
                                        << " half=" << half;
        }
    }
}

TEST(BalancedSecretBits, SeedSelectsTheSchedule)
{
    EXPECT_EQ(balancedSecretBits(24, 7), balancedSecretBits(24, 7));
    EXPECT_NE(balancedSecretBits(24, 7), balancedSecretBits(24, 8));
}

TEST(RunAttack, SameInputsSameResult)
{
    const SysConfig cfg = SysConfig::smallTest();
    AttackRunOptions opts;
    opts.trials = 8;
    for (const AttackChannel c : standardAttackChannels()) {
        const LeakageResult a =
            runAttack(c, ArchKind::SGX_LIKE, cfg, opts);
        const LeakageResult b =
            runAttack(c, ArchKind::SGX_LIKE, cfg, opts);
        EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy) << a.channel;
        EXPECT_DOUBLE_EQ(a.leakBitsPerTrial, b.leakBitsPerTrial)
            << a.channel;
        EXPECT_DOUBLE_EQ(a.signal, b.signal) << a.channel;
        EXPECT_DOUBLE_EQ(a.meanTrialCycles, b.meanTrialCycles)
            << a.channel;
    }
}

TEST(RunAttack, ScenarioConfigTweaksDoNotLeakIntoCaller)
{
    // The TLB scenario forces a set-associative TLB on its own copy of
    // the config; the caller's config must stay untouched.
    SysConfig cfg = SysConfig::smallTest();
    const unsigned ways_before = cfg.tlbWays;
    AttackRunOptions opts;
    opts.trials = 4;
    runAttack(AttackChannel::TLB_PRIME_PROBE, ArchKind::IRONHIDE, cfg,
              opts);
    EXPECT_EQ(cfg.tlbWays, ways_before);
}

TEST(SweepGridTlbEntries, SizeAxisMultipliesAndTags)
{
    AppSpec app;
    app.name = "u";
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(SysConfig::smallTest())
            .app(app)
            .arch(ArchKind::IRONHIDE)
            .tlbEntries({16, 64})
            .tlbWays({0, 4})
            .jobs();
    // Size-major, ways innermost: each entry count expands into every
    // associativity, so the fully-associative reference sits next to
    // its same-size set-associative variant.
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].tag, "tlbe=16 tlb=fa");
    EXPECT_EQ(jobs[1].tag, "tlbe=16 tlb=4way");
    EXPECT_EQ(jobs[2].tag, "tlbe=64 tlb=fa");
    EXPECT_EQ(jobs[3].tag, "tlbe=64 tlb=4way");
    EXPECT_EQ(jobs[0].cfg.tlbEntries, 16u);
    EXPECT_EQ(jobs[2].cfg.tlbEntries, 64u);
    EXPECT_EQ(jobs[1].cfg.tlbWays, 4u);
    EXPECT_EQ(jobs[3].cfg.tlbEntries, 64u);
    EXPECT_EQ(jobs[3].cfg.tlbWays, 4u);
}

TEST(SweepGridTlbEntries, AbsentAxisKeepsBaseGeometry)
{
    SysConfig cfg = SysConfig::smallTest();
    AppSpec app;
    app.name = "u";
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(cfg)
            .app(app)
            .arch(ArchKind::IRONHIDE)
            .jobs();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].tag, "");
    EXPECT_EQ(jobs[0].cfg.tlbEntries, cfg.tlbEntries);
}
