/**
 * @file
 * Open-loop serving harness: exactness and determinism.
 *
 * Pins the contracts the serving bench reports live under: the
 * percentile accumulator is exact (nearest-rank quantiles over a known
 * multiset, merge trees associative, edge cases defined), the arrival
 * process is a pure function of its config (same seed same schedule,
 * host-parallelism knobs invisible), the load ladder's saturation stop
 * provably fires on a deliberately overloaded cell instead of walking
 * the whole rung bound, and a whole ladder is identical, field for
 * field, at any IRONHIDE_THREADS setting. A lone
 * session also finishes exactly where a warmup-free InteractiveApp::run
 * completes: serving and runs share one admission order and one
 * interaction loop.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/session_server.hh"
#include "harness/arrival.hh"
#include "harness/percentile.hh"
#include "harness/serve.hh"
#include "workloads/interactive_app.hh"

using namespace ih;

namespace
{

/** A fast app spec so serving cells stay quick. */
AppSpec
tiny(const char *name)
{
    AppSpec spec = findApp(name, 0.05);
    spec.insecureThreads = 2;
    spec.secureThreads = 2;
    return spec;
}

std::vector<AppSpec>
tinyApps()
{
    return {tiny("<SSSP, GRAPH>"), tiny("<AES, QUERY>")};
}

} // namespace

// --------------------------------------------------------------------------
// PercentileAccumulator
// --------------------------------------------------------------------------

TEST(Percentile, NearestRankOnKnownDistribution)
{
    // 1..100 in scrambled insertion order: every quantile has a
    // closed-form nearest-rank answer.
    PercentileAccumulator acc;
    for (int i = 100; i >= 1; --i)
        acc.add(static_cast<Cycle>(i));
    EXPECT_EQ(acc.count(), 100u);
    EXPECT_EQ(acc.min(), 1u);
    EXPECT_EQ(acc.max(), 100u);
    EXPECT_DOUBLE_EQ(acc.mean(), 50.5);
    EXPECT_EQ(acc.quantile(0.0), 1u);    // min
    EXPECT_EQ(acc.quantile(0.50), 50u);  // ceil(0.5 * 100) = rank 50
    EXPECT_EQ(acc.quantile(0.99), 99u);
    EXPECT_EQ(acc.quantile(0.999), 100u); // ceil(99.9) = rank 100
    EXPECT_EQ(acc.quantile(1.0), 100u);
}

TEST(Percentile, DuplicatesAndSkew)
{
    // 9 fast samples and one straggler: p50 sits in the fast mass,
    // p99/p999 on the straggler — the tail behavior percentile
    // reporting exists for.
    PercentileAccumulator acc;
    for (int i = 0; i < 9; ++i)
        acc.add(10);
    acc.add(1000);
    EXPECT_EQ(acc.quantile(0.50), 10u);
    EXPECT_EQ(acc.quantile(0.90), 10u); // rank 9 of 10
    EXPECT_EQ(acc.quantile(0.99), 1000u);
    EXPECT_EQ(acc.quantile(0.999), 1000u);
}

TEST(Percentile, MergeIsAssociativeAndCommutative)
{
    // The same multiset split three ways: any merge tree must yield
    // identical quantiles (and equal the unsplit accumulator).
    std::vector<Cycle> samples;
    for (Cycle i = 0; i < 333; ++i)
        samples.push_back((i * 7919) % 1000); // scrambled, with dups
    PercentileAccumulator whole, a, b, c;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        whole.add(samples[i]);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(samples[i]);
    }

    PercentileAccumulator left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    PercentileAccumulator right = c; // c + (b + a)
    PercentileAccumulator ba = b;
    ba.merge(a);
    right.merge(ba);

    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(left.quantile(q), whole.quantile(q)) << q;
        EXPECT_EQ(right.quantile(q), whole.quantile(q)) << q;
    }
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_DOUBLE_EQ(left.mean(), right.mean());
}

TEST(Percentile, EmptyAndSingleSampleEdges)
{
    PercentileAccumulator empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.quantile(0.5), 0u);
    EXPECT_EQ(empty.min(), 0u);
    EXPECT_EQ(empty.max(), 0u);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

    PercentileAccumulator one;
    one.add(42);
    for (const double q : {0.0, 0.5, 0.999, 1.0})
        EXPECT_EQ(one.quantile(q), 42u) << q;
    EXPECT_EQ(one.min(), 42u);
    EXPECT_EQ(one.max(), 42u);
    EXPECT_DOUBLE_EQ(one.mean(), 42.0);

    // Merging an empty accumulator is the identity.
    one.merge(empty);
    EXPECT_EQ(one.count(), 1u);
    EXPECT_EQ(one.quantile(0.5), 42u);
}

// --------------------------------------------------------------------------
// ArrivalProcess
// --------------------------------------------------------------------------

class ArrivalTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        unsetenv("IRONHIDE_THREADS");
    }
    void TearDown() override
    {
        unsetenv("IRONHIDE_THREADS");
    }
};

TEST_F(ArrivalTest, SameSeedSameSchedule)
{
    ArrivalConfig cfg;
    cfg.lambdaPerSec = 5000.0;
    cfg.sessions = 200;
    cfg.mix = {1.0, 2.0, 1.0};
    cfg.seed = 1234;

    const std::vector<Arrival> a = ArrivalProcess(cfg).schedule();
    const std::vector<Arrival> b = ArrivalProcess(cfg).schedule();
    ASSERT_EQ(a.size(), 200u);
    EXPECT_TRUE(a == b);

    // Arrivals are nondecreasing and every app index is in range.
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) {
            EXPECT_GE(a[i].cycle, a[i - 1].cycle);
        }
        EXPECT_LT(a[i].appIndex, cfg.mix.size());
    }

    // A different seed actually changes the schedule.
    cfg.seed = 5678;
    EXPECT_FALSE(ArrivalProcess(cfg).schedule() == a);
}

TEST_F(ArrivalTest, ScheduleIgnoresHostParallelismKnobs)
{
    ArrivalConfig cfg;
    cfg.lambdaPerSec = 1000.0;
    cfg.sessions = 64;
    cfg.mix = {1.0, 1.0};
    const std::vector<Arrival> base = ArrivalProcess(cfg).schedule();

    setenv("IRONHIDE_THREADS", "4", 1);
    EXPECT_TRUE(ArrivalProcess(cfg).schedule() == base);
}

TEST_F(ArrivalTest, ZeroWeightAppsAreNeverDrawn)
{
    ArrivalConfig cfg;
    cfg.lambdaPerSec = 1000.0;
    cfg.sessions = 500;
    cfg.mix = {1.0, 0.0, 3.0, 0.0};
    bool sawHeavy = false;
    for (const Arrival &a : ArrivalProcess(cfg).schedule()) {
        EXPECT_TRUE(a.appIndex == 0 || a.appIndex == 2) << a.appIndex;
        sawHeavy |= a.appIndex == 2;
    }
    EXPECT_TRUE(sawHeavy);
}

// --------------------------------------------------------------------------
// One interaction protocol for serving and runs
// --------------------------------------------------------------------------

TEST(SessionServer, LoneSessionFinishesAtTheWarmupFreeRunsCompletion)
{
    const SysConfig cfg = SysConfig::smallTest();
    RunOptions ropts;
    ropts.warmup = 0;
    for (const AppSpec &spec : standardApps(0.05)) {
        SessionOptions sopts;
        sopts.interactionsPerSession = spec.interactions;
        for (ArchKind kind : {ArchKind::INSECURE, ArchKind::SGX_LIKE,
                              ArchKind::MI6, ArchKind::IRONHIDE}) {
            System sys(cfg);
            const std::unique_ptr<SecurityModel> model =
                createModel(kind, sys);
            const RunResult run =
                InteractiveApp(sys, *model, spec).run(ropts);
            SessionServer server(cfg, kind, {spec}, sopts);
            EXPECT_EQ(server.serve(0, 0), run.completion)
                << spec.name << " under " << archName(kind);
        }
    }
}

// --------------------------------------------------------------------------
// Load ladders: saturation stop + determinism
// --------------------------------------------------------------------------

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        unsetenv("IRONHIDE_THREADS");
        unsetenv("IRONHIDE_MAX_LOAD_STEPS");
    }
    void TearDown() override
    {
        unsetenv("IRONHIDE_THREADS");
        unsetenv("IRONHIDE_MAX_LOAD_STEPS");
    }
};

TEST_F(ServeTest, OverloadedCellStopsTheLadderBeforeTheRungBound)
{
    // First rung already hopelessly overloaded: arrivals every ~100
    // cycles against millisecond-scale sessions. The queue-divergence
    // stop must fire immediately — nowhere near the 10-rung bound.
    LoadLadderOptions opts;
    opts.lambda0 = 1e7;
    opts.maxSteps = 10;
    opts.serve.sessions = 12;
    const LoadLadderResult r = runLoadLadder(
        ArchKind::INSECURE, SysConfig::smallTest(), tinyApps(), opts);
    EXPECT_EQ(r.stopReason, kStopQueueDiverged);
    ASSERT_EQ(r.steps.size(), 1u);
    EXPECT_GE(r.steps[0].maxQueueDepth, 6u); // sessions/2 default limit
    EXPECT_LT(r.steps.size(), opts.maxSteps);
}

TEST_F(ServeTest, UnderloadedLadderWalksToTheRungBound)
{
    LoadLadderOptions opts;
    opts.lambda0 = 0.001; // one arrival per ~1000 simulated seconds
    opts.maxSteps = 2;
    opts.serve.sessions = 4;
    const LoadLadderResult r = runLoadLadder(
        ArchKind::INSECURE, SysConfig::smallTest(), tinyApps(), opts);
    EXPECT_EQ(r.stopReason, kStopMaxSteps);
    EXPECT_EQ(r.steps.size(), 2u);
    // Far below saturation, goodput tracks offered load.
    EXPECT_GT(r.steps[1].goodputPerSec, r.steps[0].goodputPerSec);
}

TEST_F(ServeTest, LadderIsByteIdenticalUnderHostParallelismKnobs)
{
    LoadLadderOptions opts;
    opts.maxSteps = 2;
    opts.serve.sessions = 8;
    opts.serve.splits = {4, 8}; // exercise per-session reconfiguration
    const SysConfig cfg = SysConfig::smallTest();
    const std::vector<AppSpec> apps = tinyApps();
    const LoadLadderResult base =
        runLoadLadder(ArchKind::IRONHIDE, cfg, apps, opts);

    setenv("IRONHIDE_THREADS", "4", 1);
    const LoadLadderResult parallel =
        runLoadLadder(ArchKind::IRONHIDE, cfg, apps, opts);
    EXPECT_EQ(base.arch, parallel.arch);
    EXPECT_EQ(base.stopReason, parallel.stopReason);
    ASSERT_EQ(base.steps.size(), parallel.steps.size());
    for (std::size_t i = 0; i < base.steps.size(); ++i) {
        SCOPED_TRACE(i);
        const ServeCellResult &a = base.steps[i];
        const ServeCellResult &b = parallel.steps[i];
        // Doubles compare exactly: the reports print them at %.17g.
        EXPECT_EQ(a.offeredPerSec, b.offeredPerSec);
        EXPECT_EQ(a.sessions, b.sessions);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.p50, b.p50);
        EXPECT_EQ(a.p99, b.p99);
        EXPECT_EQ(a.p999, b.p999);
        EXPECT_EQ(a.maxLatency, b.maxLatency);
        EXPECT_EQ(a.meanLatency, b.meanLatency);
        EXPECT_EQ(a.goodputPerSec, b.goodputPerSec);
        EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
        EXPECT_EQ(a.reconfigEvents, b.reconfigEvents);
        EXPECT_EQ(a.appSwitchPurges, b.appSwitchPurges);
        EXPECT_EQ(a.transitions, b.transitions);
        EXPECT_EQ(a.purgeCycles, b.purgeCycles);
        EXPECT_EQ(a.transitionCycles, b.transitionCycles);
        EXPECT_EQ(a.reconfigCycles, b.reconfigCycles);
    }
}

TEST_F(ServeTest, ServingChargesChurnOnlyWhereTheModelSaysSo)
{
    LoadLadderOptions opts;
    opts.maxSteps = 1;
    opts.serve.sessions = 8;
    const SysConfig cfg = SysConfig::smallTest();
    const std::vector<AppSpec> apps = tinyApps();

    // IRONHIDE: distrusting back-to-back sessions scrub the secure
    // cluster; with per-app splits it also rebinds the cluster.
    LoadLadderOptions ihopts = opts;
    ihopts.serve.splits = {4, 8};
    const LoadLadderResult ih = runLoadLadder(ArchKind::IRONHIDE, cfg,
                                              apps, ihopts);
    ASSERT_EQ(ih.steps.size(), 1u);
    EXPECT_GT(ih.steps[0].appSwitchPurges, 0u);
    EXPECT_GT(ih.steps[0].reconfigEvents, 0u);
    EXPECT_GT(ih.steps[0].reconfigCycles, 0u);

    // Temporal architectures never purge between apps spatially; the
    // insecure baseline charges no transition overhead at all.
    const LoadLadderResult ins = runLoadLadder(ArchKind::INSECURE, cfg,
                                               apps, opts);
    ASSERT_EQ(ins.steps.size(), 1u);
    EXPECT_EQ(ins.steps[0].appSwitchPurges, 0u);
    EXPECT_EQ(ins.steps[0].reconfigEvents, 0u);
    EXPECT_EQ(ins.steps[0].transitionCycles, 0u);

    // MI6 pays purge-bracketed entry/exit per interaction.
    const LoadLadderResult mi6 = runLoadLadder(ArchKind::MI6, cfg, apps,
                                               opts);
    ASSERT_EQ(mi6.steps.size(), 1u);
    EXPECT_GT(mi6.steps[0].purgeCycles, 0u);
    EXPECT_GT(mi6.steps[0].transitions, 0u);
}

TEST_F(ServeTest, MaxLoadStepsKnobParsesStrictly)
{
    unsetenv("IRONHIDE_MAX_LOAD_STEPS");
    EXPECT_EQ(maxLoadSteps(), 6u);
    setenv("IRONHIDE_MAX_LOAD_STEPS", "3", 1);
    EXPECT_EQ(maxLoadSteps(), 3u);
    setenv("IRONHIDE_MAX_LOAD_STEPS", "0", 1); // clamped to >= 1
    EXPECT_EQ(maxLoadSteps(), 1u);
    setenv("IRONHIDE_MAX_LOAD_STEPS", "junk", 1); // strict: fallback
    EXPECT_EQ(maxLoadSteps(), 6u);
    unsetenv("IRONHIDE_MAX_LOAD_STEPS");
}
