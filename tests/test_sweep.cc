/**
 * @file
 * Sweep-engine tests: grid enumeration order, the parallel-vs-serial
 * determinism contract of the sweep path (results and failures), edge
 * cases (empty grid, single job), summary aggregation, and the JSON
 * report writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

namespace
{

/** A fast app spec so the parallel runs stay sub-second. */
AppSpec
tiny(const char *name = "<AES, QUERY>")
{
    AppSpec spec = findApp(name, 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 2;
    spec.secureThreads = 2;
    return spec;
}

/** Job list exercising several apps and architectures. */
std::vector<SweepJob>
testJobs()
{
    return SweepGrid()
        .config(SysConfig::smallTest())
        .app(tiny("<AES, QUERY>"))
        .app(tiny("<SSSP, GRAPH>"))
        .archs({ArchKind::INSECURE, ArchKind::SGX_LIKE, ArchKind::MI6})
        .jobs();
}

/** Field-by-field equality of two results. */
void
expectSameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.decidedSplit, b.decidedSplit);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.run.completion, b.run.completion);
    EXPECT_EQ(a.run.purgeCycles, b.run.purgeCycles);
    EXPECT_EQ(a.run.transitionCycles, b.run.transitionCycles);
    EXPECT_EQ(a.run.reconfigCycles, b.run.reconfigCycles);
    EXPECT_EQ(a.run.transitions, b.run.transitions);
    EXPECT_EQ(a.run.instructions, b.run.instructions);
    EXPECT_DOUBLE_EQ(a.run.l1MissRate, b.run.l1MissRate);
    EXPECT_DOUBLE_EQ(a.run.l2MissRate, b.run.l2MissRate);
    EXPECT_EQ(a.run.secureCores, b.run.secureCores);
    EXPECT_EQ(a.run.isolationViolations, b.run.isolationViolations);
}

} // namespace

TEST(SweepGrid, EnumeratesAppMajorArchThenOptions)
{
    IronhideOptions fixed4;
    fixed4.policy = SplitPolicy::FIXED;
    fixed4.fixedSplit = 4;
    IronhideOptions fixed6 = fixed4;
    fixed6.fixedSplit = 6;

    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(SysConfig::smallTest())
            .app(tiny("<AES, QUERY>"))
            .app(tiny("<SSSP, GRAPH>"))
            .archs({ArchKind::MI6, ArchKind::IRONHIDE})
            .options(fixed4, "s4")
            .options(fixed6, "s6")
            .jobs();

    ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
    // App-major...
    EXPECT_EQ(jobs[0].app.name, "<AES, QUERY>");
    EXPECT_EQ(jobs[4].app.name, "<SSSP, GRAPH>");
    // ...then arch...
    EXPECT_EQ(jobs[0].arch, ArchKind::MI6);
    EXPECT_EQ(jobs[2].arch, ArchKind::IRONHIDE);
    // ...then options, innermost.
    EXPECT_EQ(jobs[0].tag, "s4");
    EXPECT_EQ(jobs[1].tag, "s6");
    EXPECT_EQ(jobs[3].ihopts.fixedSplit, 6u);
}

TEST(SweepGrid, DefaultsToIronhideWithOneOptionSet)
{
    const std::vector<SweepJob> jobs =
        SweepGrid().config(SysConfig::smallTest()).app(tiny()).jobs();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].arch, ArchKind::IRONHIDE);
    EXPECT_EQ(jobs[0].ihopts.policy, SplitPolicy::HEURISTIC);
    EXPECT_EQ(jobs[0].tag, "");
}

TEST(SweepGrid, TlbWaysDimensionIsInnermostAndTagged)
{
    // smallTest has 8 TLB entries, so 0 (fully associative), 4-way and
    // 2-way are all legal geometries.
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(SysConfig::smallTest())
            .app(tiny())
            .archs({ArchKind::MI6, ArchKind::IRONHIDE})
            .tlbWays({0, 4})
            .jobs();

    ASSERT_EQ(jobs.size(), 2u * 2u);
    EXPECT_EQ(jobs[0].cfg.tlbWays, 0u);
    EXPECT_EQ(jobs[0].tag, "tlb=fa");
    EXPECT_EQ(jobs[1].cfg.tlbWays, 4u);
    EXPECT_EQ(jobs[1].tag, "tlb=4way");
    EXPECT_EQ(jobs[1].arch, ArchKind::MI6); // innermost of the arch
    EXPECT_EQ(jobs[2].arch, ArchKind::IRONHIDE);

    // The suffix composes with an options tag.
    const std::vector<SweepJob> tagged =
        SweepGrid()
            .config(SysConfig::smallTest())
            .app(tiny())
            .arch(ArchKind::MI6)
            .options(IronhideOptions{}, "base")
            .tlbWays({4})
            .jobs();
    ASSERT_EQ(tagged.size(), 1u);
    EXPECT_EQ(tagged[0].tag, "base tlb=4way");
}

TEST(ParallelSweep, TlbWaysDimensionRunsEndToEnd)
{
    // The set-associative TLB exercised through a real sweep config:
    // every geometry cell must complete (and deterministically so —
    // the jobs run under the standard parallel determinism contract).
    const std::vector<SweepJob> jobs = SweepGrid()
                                           .config(SysConfig::smallTest())
                                           .app(tiny())
                                           .arch(ArchKind::MI6)
                                           .tlbWays({0, 4, 2})
                                           .jobs();
    const std::vector<ExperimentResult> out = runSweep(jobs, 3);
    ASSERT_EQ(out.size(), 3u);
    for (const ExperimentResult &res : out)
        EXPECT_GT(res.run.completion, 0u);
}

TEST(ParallelSweep, EmptyGridYieldsEmptyResults)
{
    EXPECT_TRUE(runSweep({}, 4).empty());
}

TEST(ParallelSweep, SingleJob)
{
    std::vector<SweepJob> jobs;
    SweepJob job;
    job.app = tiny();
    job.arch = ArchKind::INSECURE;
    job.cfg = SysConfig::smallTest();
    jobs.push_back(job);

    const std::vector<ExperimentResult> r = runSweep(jobs, 8);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].app, job.app.name);
    EXPECT_EQ(r[0].arch, "insecure");
    EXPECT_GT(r[0].run.completion, 0u);
}

TEST(ParallelSweep, ResultsArriveInJobOrder)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<ExperimentResult> r = runSweep(jobs, 4);
    ASSERT_EQ(r.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r[i].app, jobs[i].app.name);
        EXPECT_EQ(r[i].arch, archName(jobs[i].arch));
    }
}

TEST(ParallelSweep, ParallelMatchesSerialExactly)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<ExperimentResult> serial = runSweep(jobs, 1);
    const std::vector<ExperimentResult> parallel = runSweep(jobs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);
}

TEST(ParallelSweep, ThreadCountDoesNotChangeResults)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<ExperimentResult> base = runSweep(jobs, 2);
    for (const unsigned n : {3u, 8u}) {
        const std::vector<ExperimentResult> r = runSweep(jobs, n);
        ASSERT_EQ(r.size(), base.size());
        for (std::size_t i = 0; i < r.size(); ++i)
            expectSameResult(base[i], r[i]);
    }
}

TEST(ParallelSweep, ZeroThreadsMeansHardwareConcurrency)
{
    // runBenchSweep resolves IRONHIDE_THREADS with knobWorkers: 0 and
    // unset are the hardware concurrency, within the row's 4096.
    setenv("IRONHIDE_THREADS", "0", 1);
    const unsigned hw = knobWorkers(Knob::THREADS);
    EXPECT_GE(hw, 1u);
    EXPECT_LE(hw, 4096u);
    setenv("IRONHIDE_THREADS", "5", 1);
    EXPECT_EQ(knobWorkers(Knob::THREADS), 5u);
    unsetenv("IRONHIDE_THREADS");
    EXPECT_EQ(knobWorkers(Knob::THREADS), hw);
}

TEST(ParallelSweep, AThrowingJobFailsTheSweepTheSameWayAtAnyThreadCount)
{
    // Jobs 1 and 2 throw. The sweep fails with job 1's error, named by
    // its canonical id and its app/arch tag label — what a serial loop
    // would have raised — at every worker count.
    std::vector<SweepJob> jobs(4);
    for (SweepJob &job : jobs) {
        job.app = tiny();
        job.arch = ArchKind::INSECURE;
        job.cfg = SysConfig::smallTest();
    }
    jobs[1].tag = "first";
    jobs[1].app.make = [](const SysConfig &) -> WorkloadPair {
        throw std::runtime_error("boom 1");
    };
    jobs[2].app.make = [](const SysConfig &) -> WorkloadPair {
        throw std::runtime_error("boom 2");
    };
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        try {
            runSweep(jobs, threads);
            FAIL() << "expected the sweep to fail";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(),
                         "job 1 (<AES, QUERY>/insecure first): boom 1");
        }
    }
}

TEST(SweepSummary, AggregatesPerArchWithStatGroup)
{
    const SweepSummary s = summarize(runSweep(testJobs(), 4));

    // Three architectures, in first-appearance order.
    ASSERT_EQ(s.byArch.size(), 3u);
    EXPECT_EQ(s.byArch[0].arch, "insecure");
    EXPECT_EQ(s.byArch[1].arch, "sgx");
    EXPECT_EQ(s.byArch[2].arch, "mi6");
    for (const ArchAggregate &a : s.byArch) {
        EXPECT_EQ(a.jobs, 2u);
        EXPECT_GT(a.geomeanCompletionMs, 0.0);
    }

    // StatGroup counters mirror the aggregates.
    EXPECT_EQ(s.stats.value("mi6.jobs"), 2u);
    EXPECT_GT(s.stats.value("mi6.purge_cycles"), 0u);
    EXPECT_EQ(s.stats.value("insecure.purge_cycles"), 0u);
    EXPECT_GT(s.stats.value("sgx.transition_cycles"), 0u);

    // The insecure baseline beats MI6; speedup() agrees with the
    // geomeans it is defined over.
    const double sp = s.speedup("insecure", "mi6");
    EXPECT_GT(sp, 1.0);
    EXPECT_DOUBLE_EQ(sp, s.byArch[2].geomeanCompletionMs /
                             s.byArch[0].geomeanCompletionMs);
    EXPECT_EQ(s.speedup("insecure", "absent"), 0.0);
}

TEST(SweepSummary, EmptyResultsStayFinite)
{
    // No completed jobs at all: the summary must come back empty and
    // render to JSON without dividing by zero or emitting NaN.
    const SweepSummary s = summarize({});
    EXPECT_TRUE(s.byArch.empty());
    EXPECT_EQ(s.find("ironhide"), nullptr);
    EXPECT_EQ(s.speedup("IRONHIDE", "MI6"), 0.0);
    const std::string json = sweepToJson("empty", {}, {});
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(SweepSummary, ZeroValuedResultsStayFinite)
{
    // A degenerate cell — zero completion (empty timed region) and
    // zero miss rates — must not poison the per-arch geomeans:
    // unclamped, log(0) would have taken the whole bucket down (the
    // completion clamp is new; the rate clamp predates it).
    ExperimentResult r;
    r.app = "degenerate";
    r.arch = "ironhide";
    const std::vector<ExperimentResult> o = {r, r};
    const SweepSummary s = summarize(o);
    ASSERT_EQ(s.byArch.size(), 1u);
    EXPECT_TRUE(std::isfinite(s.byArch[0].geomeanCompletionMs));
    EXPECT_GT(s.byArch[0].geomeanCompletionMs, 0.0);
    EXPECT_TRUE(std::isfinite(s.byArch[0].geomeanL1MissRate));
    EXPECT_TRUE(std::isfinite(s.byArch[0].meanSecureCores));

    const std::string json =
        sweepToJson("degenerate", std::vector<SweepJob>(2), o);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(JsonWriter, WritesNestedDocuments)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("x\"y");
    w.key("n").value(std::uint64_t{7});
    w.key("f").value(0.5);
    w.key("ok").value(true);
    w.key("list").beginArray().value("a").value("b").endArray();
    w.key("nested").beginObject().key("k").value("v").endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"name\":\"x\\\"y\",\"n\":7,\"f\":0.5,"
                       "\"ok\":true,\"list\":[\"a\",\"b\"],"
                       "\"nested\":{\"k\":\"v\"}}");
}

TEST(JsonWriter, EscapesControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\nb\\c\td"), "a\\nb\\\\c\\td");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(SweepJson, ReportContainsJobsResultsAndSummary)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::string json =
        sweepToJson("unit_sweep", jobs, runSweep(jobs, 4));

    EXPECT_NE(json.find("\"sweep\":\"unit_sweep\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs\":6"), std::string::npos);
    EXPECT_NE(json.find("\"arch\":\"mi6\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\":["), std::string::npos);
    EXPECT_NE(json.find("\"mi6.purge_cycles\":"), std::string::npos);
    // Balanced braces/brackets: a cheap structural sanity check.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(SweepJson, V2ReportCarriesStatusAndExactCycles)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::string json = sweepToJson("unit_v2", jobs, runSweep(jobs, 1));
    EXPECT_NE(json.find("\"schema\":\"sweep/v2\""), std::string::npos);
    EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
    // Exact integers ride alongside the derived milliseconds so a
    // consumer reads them without floating-point drift.
    EXPECT_NE(json.find("\"completion_cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"completion_ms\":"), std::string::npos);
}
