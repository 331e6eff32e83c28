/**
 * @file
 * Sweep-engine tests: grid enumeration order, the parallel-vs-serial
 * determinism contract of the sweep path, edge cases (empty grid,
 * single job), summary aggregation, and the JSON report writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
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

/** The benches' sweep path, inline at @p threads workers. */
SweepOutcome
sweep(const std::vector<SweepJob> &jobs, unsigned threads)
{
    SweepRunOptions opts;
    opts.threads = threads;
    return runFaultTolerantSweep("unit_sweep", jobs, opts, FaultPlan());
}

/**
 * Run the three shards of @p jobs, each with its own journal, and
 * return the journal paths — the --merge inputs.
 */
std::vector<std::string>
shardJournals(const std::string &sweep_id,
              const std::vector<SweepJob> &jobs)
{
    std::vector<std::string> paths;
    for (unsigned s = 0; s < 3; ++s) {
        SweepRunOptions opts;
        opts.threads = 2;
        opts.shard = ShardSpec{s, 3};
        opts.journalPath = ::testing::TempDir() + sweep_id + "_shard" +
                           std::to_string(s) + ".jsonl";
        std::remove(opts.journalPath.c_str());
        EXPECT_TRUE(
            runFaultTolerantSweep(sweep_id, jobs, opts, FaultPlan())
                .complete());
        paths.push_back(opts.journalPath);
    }
    return paths;
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
    const SweepOutcome out = sweep(jobs, 3);
    ASSERT_TRUE(out.complete());
    ASSERT_EQ(out.results.size(), 3u);
    for (const ExperimentResult &res : out.results)
        EXPECT_GT(res.run.completion, 0u);
}

TEST(ParallelSweep, EmptyGridYieldsEmptyResults)
{
    EXPECT_TRUE(sweep({}, 4).results.empty());
}

TEST(ParallelSweep, SingleJob)
{
    std::vector<SweepJob> jobs;
    SweepJob job;
    job.app = tiny();
    job.arch = ArchKind::INSECURE;
    job.cfg = SysConfig::smallTest();
    jobs.push_back(job);

    const std::vector<ExperimentResult> r = sweep(jobs, 8).results;
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].app, job.app.name);
    EXPECT_EQ(r[0].arch, "insecure");
    EXPECT_GT(r[0].run.completion, 0u);
}

TEST(ParallelSweep, ResultsArriveInJobOrder)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<ExperimentResult> r = sweep(jobs, 4).results;
    ASSERT_EQ(r.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r[i].app, jobs[i].app.name);
        EXPECT_EQ(r[i].arch, archName(jobs[i].arch));
    }
}

TEST(ParallelSweep, ParallelMatchesSerialExactly)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<ExperimentResult> serial = sweep(jobs, 1).results;
    const std::vector<ExperimentResult> parallel = sweep(jobs, 4).results;
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);
}

TEST(ParallelSweep, ThreadCountDoesNotChangeResults)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<ExperimentResult> base = sweep(jobs, 2).results;
    for (const unsigned n : {3u, 8u}) {
        const std::vector<ExperimentResult> r = sweep(jobs, n).results;
        ASSERT_EQ(r.size(), base.size());
        for (std::size_t i = 0; i < r.size(); ++i)
            expectSameResult(base[i], r[i]);
    }
}

TEST(ParallelSweep, ZeroThreadsMeansHardwareConcurrency)
{
    // sweepRunFromArgs resolves IRONHIDE_THREADS with knobWorkers: 0
    // and unset are the hardware concurrency, within the row's 4096.
    char name[] = "bench";
    char *argv[] = {name, nullptr};
    setenv("IRONHIDE_THREADS", "0", 1);
    const unsigned hw = sweepRunFromArgs(1, argv).threads;
    EXPECT_GE(hw, 1u);
    EXPECT_LE(hw, 4096u);
    setenv("IRONHIDE_THREADS", "5", 1);
    EXPECT_EQ(sweepRunFromArgs(1, argv).threads, 5u);
    unsetenv("IRONHIDE_THREADS");
    EXPECT_EQ(sweepRunFromArgs(1, argv).threads, hw);
}

TEST(FaultTolerantSweep, AThrowingAppFactoryFailsOnlyItsCell)
{
    // A grid whose app factory throws: that cell fails with the
    // exception text and its neighbours complete — what the benches
    // report, instead of deadlocking, aborting or losing the grid.
    std::vector<SweepJob> jobs(3);
    for (SweepJob &job : jobs) {
        job.app = tiny();
        job.arch = ArchKind::INSECURE;
        job.cfg = SysConfig::smallTest();
    }
    jobs[1].app.make = [](const SysConfig &) -> WorkloadPair {
        throw std::runtime_error("boom");
    };
    const SweepOutcome out = sweep(jobs, 2);
    EXPECT_EQ(out.failedCells(), std::vector<std::size_t>{1});
    EXPECT_EQ(out.cells[1].status, CellStatus::FAILED);
    EXPECT_EQ(out.cells[1].error, "boom");
    EXPECT_TRUE(out.cells[0].ok());
    EXPECT_TRUE(out.cells[2].ok());
}

TEST(SweepSummary, AggregatesPerArchWithStatGroup)
{
    const SweepSummary s = summarize(sweep(testJobs(), 4));

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
    const SweepSummary s = summarize(SweepOutcome{});
    EXPECT_TRUE(s.byArch.empty());
    EXPECT_EQ(s.find("ironhide"), nullptr);
    EXPECT_EQ(s.speedup("IRONHIDE", "MI6"), 0.0);
    const std::string json = sweepToJson("empty", {}, SweepOutcome{});
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
    SweepOutcome o;
    o.results = {r, r};
    o.cells.resize(2);
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
        sweepToJson("unit_sweep", jobs, sweep(jobs, 4));

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

// --------------------------------------------------------------------------
// Fault-tolerant sweeps: sharding, honest degradation, the "sweep/v2"
// report, and shard-merge reconstruction.
// --------------------------------------------------------------------------

TEST(FaultTolerantSweep, ShardsPartitionTheGridDisjointly)
{
    const std::vector<SweepJob> jobs = testJobs();
    std::vector<unsigned> owners(jobs.size(), 0);
    for (unsigned s = 0; s < 3; ++s) {
        SweepRunOptions opts;
        opts.threads = 2;
        opts.shard = ShardSpec{s, 3};
        const SweepOutcome out =
            runFaultTolerantSweep("unit_shard", jobs, opts, FaultPlan());
        ASSERT_EQ(out.cells.size(), jobs.size());
        EXPECT_TRUE(out.sharded());
        EXPECT_TRUE(out.complete());
        EXPECT_EQ(out.exitCode(), 0);
        std::size_t owned = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (out.cells[j].status == CellStatus::SKIPPED) {
                EXPECT_EQ(out.cells[j].attempts, 0u);
                continue;
            }
            EXPECT_TRUE(out.cells[j].ok());
            EXPECT_EQ(j % 3, s); // the canonical ownership rule
            ++owners[j];
            ++owned;
        }
        EXPECT_EQ(out.shardJobs(), owned);
    }
    // Disjoint union: every job ran on exactly one shard.
    for (const unsigned c : owners)
        EXPECT_EQ(c, 1u);
}

TEST(FaultTolerantSweep, InlineFailInjectionDegradesHonestly)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions opts;
    opts.threads = 2;
    const FaultPlan faults = FaultPlan::parse("job:1:fail");
    const SweepOutcome out =
        runFaultTolerantSweep("unit_fail", jobs, opts, faults);

    // Exactly the injected cell failed; the other five survived.
    EXPECT_FALSE(out.complete());
    EXPECT_EQ(out.exitCode(), kExitDegraded);
    EXPECT_EQ(out.failedCells(), std::vector<std::size_t>{1});
    EXPECT_EQ(out.cells[1].status, CellStatus::FAILED);
    EXPECT_NE(out.cells[1].error.find("injected failure"),
              std::string::npos);

    // The summary covers the survivors only.
    const SweepSummary s = summarize(out);
    std::size_t summarized = 0;
    for (const ArchAggregate &a : s.byArch)
        summarized += a.jobs;
    EXPECT_EQ(summarized, jobs.size() - 1);

    // ...and the v2 report says so instead of faking completeness.
    const std::string json = sweepToJson("unit_fail", jobs, out);
    EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
    EXPECT_NE(json.find("\"failed_cells\":[1]"), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"error\":\"injected failure\""),
              std::string::npos);
}

TEST(FaultTolerantSweep, V2ReportCarriesStatusAndExactCycles)
{
    const std::vector<SweepJob> jobs = testJobs();
    const SweepOutcome out = runFaultTolerantSweep(
        "unit_v2", jobs, SweepRunOptions{}, FaultPlan());
    ASSERT_TRUE(out.complete());

    const std::string json = sweepToJson("unit_v2", jobs, out);
    EXPECT_NE(json.find("\"schema\":\"sweep/v2\""), std::string::npos);
    EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
    // Exact integers ride alongside the derived milliseconds so a
    // consumer reads them without floating-point drift.
    EXPECT_NE(json.find("\"completion_cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"completion_ms\":"), std::string::npos);
    // A complete unsharded run reports no failure paraphernalia.
    EXPECT_EQ(json.find("\"failed_cells\""), std::string::npos);
    EXPECT_EQ(json.find("\"shard\""), std::string::npos);
}

TEST(FaultTolerantSweep, MergedShardReportsMatchUnshardedBytes)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions full;
    full.threads = 4;
    const SweepOutcome whole =
        runFaultTolerantSweep("unit_merge", jobs, full, FaultPlan());
    const std::string expect = sweepToJson("unit_merge", jobs, whole);

    // Sharding is unobservable: a merge of the shard journals is a
    // resume with nothing left to run, and renders the unsharded
    // document byte for byte.
    SweepRunOptions merge;
    merge.mergePaths = shardJournals("unit_merge", jobs);
    const SweepOutcome merged =
        runFaultTolerantSweep("unit_merge", jobs, merge, FaultPlan());
    EXPECT_FALSE(merged.sharded());
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.resumed, jobs.size());
    EXPECT_EQ(sweepToJson("unit_merge", jobs, merged), expect);
}

TEST(FaultTolerantSweep, MergeRejectsIncompleteOrDuplicateShardSets)
{
    const std::vector<SweepJob> jobs = testJobs();
    const std::vector<std::string> j = shardJournals("unit_merge", jobs);
    const auto merge = [&jobs](const std::string &sweep_id,
                               SweepRunOptions opts) {
        return runFaultTolerantSweep(sweep_id, jobs, opts, FaultPlan());
    };
    SweepRunOptions opts;

    // A shard missing → a canonical job is in no journal → refuse.
    opts.mergePaths = {j[0], j[1]};
    EXPECT_THROW(merge("unit_merge", opts), JournalError);
    // The same shard twice → a job in two journals → refuse.
    opts.mergePaths = {j[0], j[0], j[1], j[2]};
    EXPECT_THROW(merge("unit_merge", opts), JournalError);
    // Journals of a different sweep → refuse.
    opts.mergePaths = j;
    EXPECT_THROW(merge("other_sweep", opts), JournalError);

    // A merge rebuilds the whole sweep: it takes neither a shard of
    // its own nor a journal to resume.
    SweepRunOptions sharded = opts;
    sharded.shard = ShardSpec{0, 3};
    EXPECT_THROW(merge("unit_merge", sharded), JournalError);
    SweepRunOptions journaled = opts;
    journaled.journalPath = ::testing::TempDir() + "unit_merge_own.jsonl";
    EXPECT_THROW(merge("unit_merge", journaled), JournalError);
}
