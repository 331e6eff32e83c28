/**
 * @file
 * Harness tests: table rendering, experiment plumbing, the split
 * decision policies, the knob registry and its strict parsers, the
 * deterministic fork-join primitive, and the strict bench arguments
 * and failure exits of the bench drivers (runBenchSweep, runBenchCells).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"

using namespace ih;

TEST(Table, RendersHeadersAndRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1.00"});
    t.addSeparator();
    t.addRow({"beta", "2.50"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("2.50"), std::string::npos);
    // Header separator plus the explicit one.
    EXPECT_GE(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(Table, NumbersRightAlignedFirstColumnLeft)
{
    Table t({"k", "v"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "100"});
    const std::string s = t.toString();
    // The short value is padded to the width of the long one.
    EXPECT_NE(s.find("  a        "), std::string::npos);
    EXPECT_NE(s.find("  1\n"), std::string::npos);
}

TEST(TableDeathTest, RowWidthMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(BenchScale, DefaultsToOne)
{
    unsetenv("IRONHIDE_SCALE");
    EXPECT_EQ(benchScale(), 1.0);
}

TEST(BenchScale, ReadsEnvironment)
{
    setenv("IRONHIDE_SCALE", "0.25", 1);
    EXPECT_EQ(benchScale(), 0.25);
    setenv("IRONHIDE_SCALE", "garbage", 1);
    EXPECT_EQ(benchScale(), 1.0); // warns and falls back
    setenv("IRONHIDE_SCALE", "0.25abc", 1);
    EXPECT_EQ(benchScale(), 1.0); // trailing garbage: warns, falls back
    unsetenv("IRONHIDE_SCALE");
}

TEST(ParsePositiveDouble, AcceptsCompleteFiniteNumbers)
{
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "0.15", 1.0), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "2", 1.0), 2.0);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "1e-3", 1.0), 1e-3);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "  0.5", 1.0), 0.5);
}

TEST(ParsePositiveDouble, UnsetOrEmptyFallsBackSilently)
{
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", nullptr, 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "", 0.15), 0.15);
}

TEST(ParsePositiveDouble, RejectsWhatAtofWouldAccept)
{
    // Trailing garbage: std::atof would have returned 0.99 here, and
    // the bench would have run with a half-typed value.
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "0.99abc", 0.15), 0.15);
    // Non-finite spellings: "inf" is no workload scale.
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "inf", 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "-inf", 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "nan", 0.15), 0.15);
}

TEST(ParsePositiveDouble, RejectsNonPositiveAndOutOfRange)
{
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "0", 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "-1", 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "1e9999", 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "1e-9999", 0.15), 0.15);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "abc", 0.15), 0.15);
}

// ---- The knob registry ----------------------------------------------------

namespace
{

/** A count knob with README.md's default and its first rejected value
 *  above the registry row's bound. */
struct CountKnob
{
    Knob knob;
    const char *name;
    const char *overBound;
    unsigned long def;
};

const CountKnob kCountKnobs[] = {
    {Knob::THREADS, "IRONHIDE_THREADS", "4097", 0},
    {Knob::ATTACK_TRIALS, "IRONHIDE_ATTACK_TRIALS", "4097", 24},
    {Knob::MAX_LOAD_STEPS, "IRONHIDE_MAX_LOAD_STEPS", "65", 6},
    {Knob::SERVE_SESSIONS, "IRONHIDE_SERVE_SESSIONS", "1000001", 48},
    {Knob::SERVE_APPS, "IRONHIDE_SERVE_APPS", "10", 9},
    {Knob::SERVE_SEED, "IRONHIDE_SERVE_SEED", "4294967296", 0xC0FFEE},
};

} // namespace

TEST(Knobs, CountKnobsRejectAboveBoundAndGarbage)
{
    for (const CountKnob &k : kCountKnobs) {
        SCOPED_TRACE(k.name);
        unsetenv(k.name);
        EXPECT_EQ(knobCount(k.knob), k.def);
        setenv(k.name, k.overBound, 1);
        EXPECT_EQ(knobCount(k.knob), k.def);
        setenv(k.name, "4junk", 1);
        EXPECT_EQ(knobCount(k.knob), k.def);
        setenv(k.name, "4", 1); // within every count knob's bounds
        EXPECT_EQ(knobCount(k.knob), 4u);
        unsetenv(k.name);
    }
}

TEST(Knobs, CountParsingIsStrict)
{
    setenv("IRONHIDE_MAX_LOAD_STEPS", "0", 1); // the row's minimum: valid
    EXPECT_EQ(knobCount(Knob::MAX_LOAD_STEPS), 0u);
    // Each falls back to the default 6; strtoul would wrap "-2".
    for (const char *bad : {"", "-2", "4abc", "99999999999999999999"}) {
        setenv("IRONHIDE_MAX_LOAD_STEPS", bad, 1);
        EXPECT_EQ(knobCount(Knob::MAX_LOAD_STEPS), 6u) << bad;
    }
    unsetenv("IRONHIDE_MAX_LOAD_STEPS");
}

TEST(Knobs, ZeroBelowTheLowerBoundGivesTheDefault)
{
    setenv("IRONHIDE_SERVE_SESSIONS", "0", 1);
    EXPECT_EQ(knobCount(Knob::SERVE_SESSIONS), 48u);
    unsetenv("IRONHIDE_SERVE_SESSIONS");
}

TEST(Knobs, ZeroWorkersIsTheHardwareConcurrencyWithinTheBound)
{
    setenv("IRONHIDE_THREADS", "0", 1);
    const unsigned hw = knobWorkers(Knob::THREADS);
    EXPECT_GE(hw, 1u);
    EXPECT_LE(hw, 4096u);
    setenv("IRONHIDE_THREADS", "3", 1);
    EXPECT_EQ(knobWorkers(Knob::THREADS), 3u);
    unsetenv("IRONHIDE_THREADS"); // the default is 0
    EXPECT_EQ(knobWorkers(Knob::THREADS), hw);
}

TEST(Knobs, RealKnobsRejectInfAndTrailingGarbage)
{
    const struct
    {
        Knob knob;
        const char *name;
        double def;
    } reals[] = {
        {Knob::SCALE, "IRONHIDE_SCALE", 1.0},
        {Knob::SERVE_LAMBDA0, "IRONHIDE_SERVE_LAMBDA0", 0.0},
        {Knob::MICRO_MS, "IRONHIDE_MICRO_MS", 20.0},
    };
    for (const auto &k : reals) {
        SCOPED_TRACE(k.name);
        setenv(k.name, "inf", 1);
        EXPECT_EQ(knobReal(k.knob), k.def);
        setenv(k.name, "0.15abc", 1);
        EXPECT_EQ(knobReal(k.knob), k.def);
        setenv(k.name, "0.25", 1);
        EXPECT_EQ(knobReal(k.knob), 0.25);
        unsetenv(k.name);
        EXPECT_EQ(knobReal(k.knob), k.def);
    }
}

TEST(Knobs, EmptyTextKnobReadsAsUnset)
{
    const std::pair<Knob, const char *> texts[] = {
        {Knob::DUMP_GOLDEN, "IH_DUMP_GOLDEN"},
    };
    for (const auto &[knob, name] : texts) {
        SCOPED_TRACE(name);
        setenv(name, "", 1);
        EXPECT_EQ(knobText(knob), nullptr);
        setenv(name, "x", 1);
        EXPECT_STREQ(knobText(knob), "x");
        unsetenv(name);
        EXPECT_EQ(knobText(knob), nullptr);
    }
}

TEST(ParallelForIndex, VisitsEveryIndexExactlyOnce)
{
    for (unsigned workers : {0u, 1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(100);
        for (auto &h : hits)
            h.store(0);
        parallelForIndex(hits.size(), workers,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelForIndex, ZeroJobsIsANoop)
{
    parallelForIndex(0, 4, [&](std::size_t) { FAIL() << "called"; });
}

TEST(ParallelForIndex, PropagatesCanonicalSmallestIndexError)
{
    // Index 6 fails instantly, index 1 fails 100 ms later: the caller
    // must still see index 1's exception — the one a serial loop would
    // have produced — not whichever lost the wall-clock race.
    const auto fn = [](std::size_t i) {
        if (i == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            throw std::runtime_error("low");
        }
        if (i == 6)
            throw std::runtime_error("high");
    };
    try {
        parallelForIndex(8, 8, fn);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "low");
    }
    try {
        parallelForIndex(8, 1, fn); // serial reference semantics
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "low");
    }
}

TEST(ParallelForIndex, SkipsIndicesPastTheFailure)
{
    // Serial semantics: nothing after the first failing index runs.
    std::vector<int> ran(4, 0);
    try {
        parallelForIndex(4, 1, [&](std::size_t i) {
            ran[i] = 1;
            if (i == 1)
                throw std::runtime_error("stop");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(ran[0], 1);
    EXPECT_EQ(ran[1], 1);
    EXPECT_EQ(ran[2], 0);
    EXPECT_EQ(ran[3], 0);
}

TEST(BenchConfig, Validates)
{
    const SysConfig cfg = benchConfig();
    EXPECT_EQ(cfg.numTiles(), 64u);
}

namespace
{

AppSpec
tiny()
{
    AppSpec spec = findApp("<AES, QUERY>", 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 2;
    spec.secureThreads = 2;
    return spec;
}

} // namespace

TEST(Experiment, BaselineAndFixedSplitRun)
{
    const SysConfig cfg = SysConfig::smallTest();
    const AppSpec spec = tiny();
    const ExperimentResult base =
        runExperiment(spec, ArchKind::INSECURE, cfg);
    EXPECT_EQ(base.app, spec.name);
    EXPECT_EQ(base.arch, "insecure");
    EXPECT_GT(base.run.completion, 0u);

    IronhideOptions opts;
    opts.policy = SplitPolicy::FIXED;
    opts.fixedSplit = 4;
    const ExperimentResult ih =
        runExperiment(spec, ArchKind::IRONHIDE, cfg, opts);
    EXPECT_EQ(ih.decidedSplit, 4u);
    EXPECT_EQ(ih.run.secureCores, 4u);
}

TEST(Experiment, StaticHalfSkipsReconfiguration)
{
    const SysConfig cfg = SysConfig::smallTest();
    IronhideOptions opts;
    opts.policy = SplitPolicy::STATIC_HALF;
    const ExperimentResult r =
        runExperiment(tiny(), ArchKind::IRONHIDE, cfg, opts);
    EXPECT_EQ(r.run.reconfigCycles, 0u);
    EXPECT_EQ(r.run.secureCores, cfg.numTiles() / 2);
}

TEST(Experiment, FixedSplitReproducesTheDecidedRun)
{
    // Figure 8 runs its +/-x% rows as FIXED cells at splits taken from
    // an OPTIMAL cell's decision, so a FIXED run at the decided split
    // must be that OPTIMAL run: only the probe count differs.
    const SysConfig cfg = SysConfig::smallTest();
    IronhideOptions optimal;
    optimal.policy = SplitPolicy::OPTIMAL;
    optimal.probeInteractions = 2;
    const ExperimentResult o =
        runExperiment(tiny(), ArchKind::IRONHIDE, cfg, optimal);
    IronhideOptions fixed;
    fixed.policy = SplitPolicy::FIXED;
    fixed.fixedSplit = o.decidedSplit;
    const ExperimentResult f =
        runExperiment(tiny(), ArchKind::IRONHIDE, cfg, fixed);

    EXPECT_EQ(o.probes, 13u);
    EXPECT_EQ(f.probes, 0u);
    EXPECT_EQ(f.decidedSplit, o.decidedSplit);
    EXPECT_EQ(f.run.completion, o.run.completion);
    EXPECT_EQ(f.run.purgeCycles, o.run.purgeCycles);
    EXPECT_EQ(f.run.transitionCycles, o.run.transitionCycles);
    EXPECT_EQ(f.run.reconfigCycles, o.run.reconfigCycles);
    EXPECT_EQ(f.run.transitions, o.run.transitions);
    EXPECT_EQ(f.run.l1MissRate, o.run.l1MissRate);
    EXPECT_EQ(f.run.l2MissRate, o.run.l2MissRate);
    EXPECT_EQ(f.run.interactivityPerSec, o.run.interactivityPerSec);
    EXPECT_EQ(f.run.secureCores, o.run.secureCores);
    EXPECT_EQ(f.run.instructions, o.run.instructions);
    EXPECT_EQ(f.run.isolationViolations, o.run.isolationViolations);
    EXPECT_EQ(f.run.blockedAccesses, o.run.blockedAccesses);
}

TEST(Experiment, OptimalNeverWorseThanFixedEndpoints)
{
    const SysConfig cfg = SysConfig::smallTest();
    const AppSpec spec = tiny();
    const auto opt =
        decideSplit(spec, cfg, SplitPolicy::OPTIMAL, 2);

    auto completion_at = [&](unsigned split) {
        IronhideOptions o;
        o.policy = SplitPolicy::FIXED;
        o.fixedSplit = split;
        return runExperiment(spec, ArchKind::IRONHIDE, cfg, o)
            .run.completion;
    };
    // The oracle's choice (measured on probes) should not be beaten
    // decisively by the extreme splits on the full run.
    const Cycle at_opt = completion_at(opt.secureCores);
    EXPECT_LE(at_opt, completion_at(2) * 2);
    EXPECT_LE(at_opt, completion_at(cfg.numTiles() - 2) * 2);
}

// ---- writeTextFile (atomic) -----------------------------------------------

TEST(WriteTextFile, WritesAndOverwritesAtomically)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/ih_wtf_test.txt";
    writeTextFile(path, "first\n");
    EXPECT_EQ(readTextFile(path), "first\n");
    // Overwrite goes through temp+rename: the new content lands whole.
    writeTextFile(path, "second, longer than before\n");
    EXPECT_EQ(readTextFile(path), "second, longer than before\n");
    std::remove(path.c_str());
}

TEST(WriteTextFile, LeavesNoTempFileBehind)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/ih_wtf_tmpcheck.txt";
    writeTextFile(path, "payload\n");
    // The temp name is path + ".tmp.<pid>"; after a successful rename
    // it must be gone.
    const std::string tmp =
        path + strprintf(".tmp.%ld", static_cast<long>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "r");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
    std::remove(path.c_str());
}

TEST(JsonReportPath, ProbeLeavesTheTargetUntouched)
{
    // The fail-fast --json probe runs before the sweep; a bench that
    // dies afterwards must not leave an empty report at the path, nor
    // clobber the previous one.
    const std::string dir = ::testing::TempDir();
    const std::string absent = dir + "/ih_probe_absent.json";
    const std::string existing = dir + "/ih_probe_existing.json";
    std::remove(absent.c_str());
    writeTextFile(existing, "previous report\n");
    for (const std::string &path : {absent, existing}) {
        const char *args[] = {"bench", "--json", path.c_str()};
        EXPECT_STREQ(jsonReportPath(3, const_cast<char **>(args)),
                     path.c_str());
    }
    std::FILE *f = std::fopen(absent.c_str(), "r");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
    EXPECT_EQ(readTextFile(existing), "previous report\n");
    std::remove(existing.c_str());
}

// ---- Strict bench arguments ----------------------------------------------
//
// One "--json <path>" is the only argument a bench takes. Anything else
// exits 1 before a cell runs: a typo'd flag that was ignored would run
// the whole bench and write no report.

TEST(JsonReportPathDeathTest, ATypoIsFatal)
{
    const char *args[] = {"bench", "--jsn", "out.json"};
    EXPECT_EXIT(jsonReportPath(3, const_cast<char **>(args)),
                ::testing::ExitedWithCode(1), "unknown argument '--jsn'");
}

TEST(JsonReportPathDeathTest, ARemovedFlagIsFatal)
{
    const std::string path = ::testing::TempDir() + "/ih_removed_flag.json";
    for (const char *flag : {"--isolate", "--journal", "--merge"}) {
        SCOPED_TRACE(flag);
        const char *args[] = {"bench", flag, "x.jsonl", "--json",
                              path.c_str()};
        EXPECT_EXIT(jsonReportPath(5, const_cast<char **>(args)),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown argument '") + flag + "'");
    }
}

TEST(JsonReportPathDeathTest, AStrayPositionalArgumentIsFatal)
{
    const std::string path = ::testing::TempDir() + "/ih_stray_arg.json";
    const char *args[] = {"bench", "--json", path.c_str(), "extra"};
    EXPECT_EXIT(jsonReportPath(4, const_cast<char **>(args)),
                ::testing::ExitedWithCode(1), "unknown argument 'extra'");
    const char *twice[] = {"bench", "--json", path.c_str(), "--json",
                           path.c_str()};
    EXPECT_EXIT(jsonReportPath(5, const_cast<char **>(twice)),
                ::testing::ExitedWithCode(1), "--json given more than once");
}

TEST(RunBenchSweepDeathTest, AFailingJobExitsOneAndWritesNoReport)
{
    // A throwing cell fails the bench with the sweep's error, naming the
    // job by canonical id and label, before any report is written.
    const std::string path = ::testing::TempDir() + "/ih_failed_sweep.json";
    std::remove(path.c_str());
    std::vector<SweepJob> jobs(3);
    for (SweepJob &job : jobs) {
        job.app = tiny();
        job.arch = ArchKind::INSECURE;
        job.cfg = SysConfig::smallTest();
    }
    jobs[1].app.make = [](const SysConfig &) -> WorkloadPair {
        throw std::runtime_error("boom");
    };
    const char *args[] = {"bench", "--json", path.c_str()};
    char **argv = const_cast<char **>(args);
    EXPECT_EXIT(maybeWriteJsonReport(3, argv, "unit_fail", jobs,
                                     runBenchSweep(3, argv, jobs)),
                ::testing::ExitedWithCode(1),
                "job 1 \\(<AES, QUERY>/insecure\\): boom");
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
}

TEST(RunBenchCellsDeathTest, AThrowingCellExitsOneNamingTheLowestFailingCell)
{
    // Cells 1 and 3 throw: the bench fails with cell 1's error at any
    // worker count, before the report that would follow is written.
    const std::string path = ::testing::TempDir() + "/ih_failed_cells.json";
    std::remove(path.c_str());
    const auto bench = [&path] {
        runBenchCells(4, [](std::size_t i) {
            if (i % 2 == 1)
                throw std::runtime_error(strprintf("boom %zu", i));
        });
        writeTextFile(path, "{}\n");
    };
    for (const char *threads : {"1", "4"}) {
        SCOPED_TRACE(threads);
        setenv("IRONHIDE_THREADS", threads, 1);
        EXPECT_EXIT(bench(), ::testing::ExitedWithCode(1), "cell 1: boom 1");
    }
    unsetenv("IRONHIDE_THREADS");
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
}
