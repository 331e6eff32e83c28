/**
 * @file
 * Harness tests: table rendering, experiment plumbing, the split
 * decision policies, the knob registry and its strict parsers, and the
 * deterministic fork-join primitive.
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
    // the perf gate would have run with a half-typed tolerance.
    EXPECT_DOUBLE_EQ(parsePositiveDouble("T", "0.99abc", 0.15), 0.15);
    // Non-finite spellings: "inf" would have disabled the wall gate.
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
    {Knob::DOMAINS, "IRONHIDE_DOMAINS", "257", 1},
    {Knob::JOB_TIMEOUT_MS, "IRONHIDE_JOB_TIMEOUT_MS", "86400001", 0},
    {Knob::JOB_RETRIES, "IRONHIDE_JOB_RETRIES", "17", 1},
    {Knob::ATTACK_TRIALS, "IRONHIDE_ATTACK_TRIALS", "4097", 24},
    {Knob::MAX_LOAD_STEPS, "IRONHIDE_MAX_LOAD_STEPS", "65", 6},
    {Knob::SERVE_SESSIONS, "IRONHIDE_SERVE_SESSIONS", "1000001", 48},
    {Knob::SERVE_APPS, "IRONHIDE_SERVE_APPS", "10", 9},
    {Knob::SERVE_SEED, "IRONHIDE_SERVE_SEED", "4294967296", 0xC0FFEE},
    {Knob::PERF_REPEATS, "IRONHIDE_PERF_REPEATS", "1001", 1},
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
    setenv("IRONHIDE_DOMAINS", "0", 1); // the caller's sentinel: valid
    EXPECT_EQ(knobCount(Knob::DOMAINS), 0u);
    for (const char *bad : {"", "-2", "4abc", "99999999999999999999"}) {
        setenv("IRONHIDE_DOMAINS", bad, 1); // strtoul would wrap "-2"
        EXPECT_EQ(knobCount(Knob::DOMAINS), 1u) << bad;
    }
    unsetenv("IRONHIDE_DOMAINS");
}

TEST(Knobs, ZeroBelowTheLowerBoundGivesTheDefault)
{
    setenv("IRONHIDE_SERVE_SESSIONS", "0", 1);
    EXPECT_EQ(knobCount(Knob::SERVE_SESSIONS), 48u);
    setenv("IRONHIDE_PERF_REPEATS", "0", 1);
    EXPECT_EQ(knobCount(Knob::PERF_REPEATS), 1u);
    unsetenv("IRONHIDE_SERVE_SESSIONS");
    unsetenv("IRONHIDE_PERF_REPEATS");
}

TEST(Knobs, ZeroWorkersIsTheHardwareConcurrencyWithinTheBound)
{
    setenv("IRONHIDE_DOMAINS", "0", 1);
    const unsigned hw = knobWorkers(Knob::DOMAINS);
    EXPECT_GE(hw, 1u);
    EXPECT_LE(hw, 256u);
    setenv("IRONHIDE_DOMAINS", "3", 1);
    EXPECT_EQ(knobWorkers(Knob::DOMAINS), 3u);
    unsetenv("IRONHIDE_DOMAINS");
    EXPECT_EQ(knobWorkers(Knob::DOMAINS), 1u);
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
        {Knob::PERF_SCALE, "IRONHIDE_PERF_SCALE", 0.1},
        {Knob::PERF_TOLERANCE, "IRONHIDE_PERF_TOLERANCE", 0.15},
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
        {Knob::SHARD, "IRONHIDE_SHARD"},
        {Knob::SERVE_CALIB, "IRONHIDE_SERVE_CALIB"},
        {Knob::FAULT_INJECT, "IH_FAULT_INJECT"},
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

TEST(Experiment, VariationPerturbsDecision)
{
    const SysConfig cfg = SysConfig::smallTest();
    IronhideOptions plus;
    plus.policy = SplitPolicy::OPTIMAL;
    plus.variationPct = +25;
    plus.probeInteractions = 2;
    IronhideOptions minus = plus;
    minus.variationPct = -25;
    const ExperimentResult hi =
        runExperiment(tiny(), ArchKind::IRONHIDE, cfg, plus);
    const ExperimentResult lo =
        runExperiment(tiny(), ArchKind::IRONHIDE, cfg, minus);
    // +/-25% of a 16-tile machine is +/-4 cores around the same oracle
    // decision, clamped to the legal [2, 14] range.
    EXPECT_GT(hi.decidedSplit, lo.decidedSplit);
    EXPECT_LE(hi.decidedSplit - lo.decidedSplit, 8u);
    EXPECT_GE(lo.decidedSplit, 2u);
    EXPECT_LE(hi.decidedSplit, cfg.numTiles() - 2);
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

// ---- jsonNumberField ------------------------------------------------------
//
// The perf gate reads wall_ms_best / sim_completion_cycles_total back out
// of bench/perf_baseline.json with this scanner; a substring match that
// hits the key's text inside a string value (or a colon-less sibling)
// would silently gate against the wrong number.

TEST(JsonNumberField, ReadsTopLevelAndNestedKeys)
{
    double v = 0.0;
    EXPECT_TRUE(jsonNumberField("{\"wall_ms_best\":123.5}", "wall_ms_best",
                                v));
    EXPECT_DOUBLE_EQ(v, 123.5);
    EXPECT_TRUE(jsonNumberField("{\"outer\":{\"cycles\":42}}", "cycles", v));
    EXPECT_DOUBLE_EQ(v, 42.0);
    EXPECT_TRUE(jsonNumberField("{ \"a\" : 1 ,\n  \"b\" : -2.5e3 }", "b",
                                v));
    EXPECT_DOUBLE_EQ(v, -2500.0);
}

TEST(JsonNumberField, IgnoresKeyTextInsideStringValues)
{
    // The first "wall_ms_best" substring is a string *value*; the real
    // key comes later and must win.
    double v = 0.0;
    EXPECT_TRUE(jsonNumberField(
        "{\"note\":\"wall_ms_best\",\"wall_ms_best\":7}", "wall_ms_best",
        v));
    EXPECT_DOUBLE_EQ(v, 7.0);

    // Escaped quotes inside a string value must not fabricate a key
    // position either.
    EXPECT_TRUE(jsonNumberField(
        "{\"note\":\"x \\\"wall_ms_best\\\": 99\",\"wall_ms_best\":5}",
        "wall_ms_best", v));
    EXPECT_DOUBLE_EQ(v, 5.0);

    // A value-only occurrence with no real key anywhere: no match, even
    // though a number follows later in the document.
    EXPECT_FALSE(jsonNumberField(
        "{\"note\":\"wall_ms_best\",\"other\":3}", "wall_ms_best", v));
}

TEST(JsonNumberField, RequiresSingleColonAndNumber)
{
    double v = 0.0;
    // Arbitrary colon/whitespace runs are not a key-value separator.
    EXPECT_FALSE(jsonNumberField("{\"k\"::5}", "k", v));
    // Key bound to a string, not a number.
    EXPECT_FALSE(jsonNumberField("{\"k\":\"5ms\"}", "k", v));
    // Whitespace around the single colon is fine.
    EXPECT_TRUE(jsonNumberField("{\"k\" \n : \t 5}", "k", v));
    EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(JsonNumberField, DoesNotMatchKeySubstringsOrPrefixes)
{
    double v = 0.0;
    // "wall_ms" must not match inside "wall_ms_best" (quoted needle),
    // and a longer key must not satisfy a shorter lookup.
    EXPECT_FALSE(jsonNumberField("{\"wall_ms_best\":9}", "wall_ms", v));
    EXPECT_TRUE(jsonNumberField(
        "{\"wall_ms_best\":9,\"wall_ms\":4}", "wall_ms", v));
    EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(JsonNumberField, ReadsRealPerfReportShape)
{
    // Shape-faithful miniature of bench/perf_baseline.json, including
    // the "bench":"perf_smoke" string that precedes every numeric key.
    const std::string report =
        "{\"schema\":\"BENCH_perf/v1\",\"bench\":\"perf_smoke\","
        "\"wall_ms\":2383.7,\"wall_ms_best\":2282.2,"
        "\"sim_completion_cycles_total\":163100589}";
    double v = 0.0;
    ASSERT_TRUE(jsonNumberField(report, "wall_ms_best", v));
    EXPECT_DOUBLE_EQ(v, 2282.2);
    ASSERT_TRUE(jsonNumberField(report, "sim_completion_cycles_total", v));
    EXPECT_DOUBLE_EQ(v, 163100589.0);
    ASSERT_TRUE(jsonNumberField(report, "wall_ms", v));
    EXPECT_DOUBLE_EQ(v, 2383.7);
}

// ---- parseShardSpec -------------------------------------------------------
//
// IRONHIDE_SHARD partitions a sweep across processes; a misparsed spec
// silently re-running the whole grid on every "shard" would be worse
// than refusing, so the parser is strict (sweepShard() turns a reject
// into fatal()).

TEST(ParseShardSpec, AcceptsCompleteIndexSlashCount)
{
    unsigned long i = 99, n = 99;
    EXPECT_TRUE(parseShardSpec("T", "0/1", 4096, i, n));
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(parseShardSpec("T", "2/3", 4096, i, n));
    EXPECT_EQ(i, 2u);
    EXPECT_EQ(n, 3u);
    EXPECT_TRUE(parseShardSpec("T", "4095/4096", 4096, i, n));
    EXPECT_EQ(i, 4095u);
    EXPECT_EQ(n, 4096u);
}

TEST(ParseShardSpec, UnsetOrEmptyFailsSilently)
{
    unsigned long i = 0, n = 0;
    EXPECT_FALSE(parseShardSpec("T", nullptr, 4096, i, n));
    EXPECT_FALSE(parseShardSpec("T", "", 4096, i, n));
}

TEST(ParseShardSpec, RejectsIncompleteSpecs)
{
    unsigned long i = 0, n = 0;
    EXPECT_FALSE(parseShardSpec("T", "2/", 4096, i, n));
    EXPECT_FALSE(parseShardSpec("T", "/3", 4096, i, n));
    EXPECT_FALSE(parseShardSpec("T", "2", 4096, i, n));
    EXPECT_FALSE(parseShardSpec("T", "/", 4096, i, n));
    EXPECT_FALSE(parseShardSpec("T", "1/2/3", 4096, i, n));
}

TEST(ParseShardSpec, RejectsOutOfRangeAndSignsAndGarbage)
{
    unsigned long i = 0, n = 0;
    EXPECT_FALSE(parseShardSpec("T", "1/0", 4096, i, n)); // zero shards
    EXPECT_FALSE(parseShardSpec("T", "3/2", 4096, i, n)); // index >= count
    EXPECT_FALSE(parseShardSpec("T", "3/3", 4096, i, n)); // index >= count
    EXPECT_FALSE(parseShardSpec("T", "0/4097", 4096, i, n)); // over cap
    EXPECT_FALSE(parseShardSpec("T", "-1/2", 4096, i, n));   // sign
    EXPECT_FALSE(parseShardSpec("T", "+1/2", 4096, i, n));   // sign
    EXPECT_FALSE(parseShardSpec("T", "1/-2", 4096, i, n));   // sign
    EXPECT_FALSE(parseShardSpec("T", "1/2abc", 4096, i, n)); // trailing
    EXPECT_FALSE(parseShardSpec("T", "1a/2", 4096, i, n));   // embedded
    EXPECT_FALSE(parseShardSpec("T", " 1/2", 4096, i, n));   // whitespace
    EXPECT_FALSE(parseShardSpec("T", "1 /2", 4096, i, n));
    EXPECT_FALSE(
        parseShardSpec("T", "99999999999999999999/2", 4096, i, n));
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

// ---- jsonUnsignedField ----------------------------------------------------
//
// Cycle counters are full uint64; the shard merge reads them back with
// this helper precisely because a double round-trip would corrupt
// values past 2^53.

TEST(JsonUnsignedField, ReadsExactBigIntegers)
{
    std::uint64_t v = 0;
    // 2^53 + 1 is the first integer a double cannot represent.
    EXPECT_TRUE(jsonUnsignedField("{\"c\":9007199254740993}", "c", v));
    EXPECT_EQ(v, 9007199254740993ull);
    EXPECT_TRUE(
        jsonUnsignedField("{\"c\":18446744073709551615}", "c", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    EXPECT_TRUE(jsonUnsignedField("{\"a\":1,\"c\":0}", "c", v));
    EXPECT_EQ(v, 0u);
}

TEST(JsonUnsignedField, RejectsNonIntegersAndOverflow)
{
    std::uint64_t v = 0;
    EXPECT_FALSE(jsonUnsignedField("{\"c\":-1}", "c", v));
    EXPECT_FALSE(jsonUnsignedField("{\"c\":1.5}", "c", v));
    EXPECT_FALSE(jsonUnsignedField("{\"c\":1e3}", "c", v));
    EXPECT_FALSE(jsonUnsignedField("{\"c\":\"12\"}", "c", v));
    EXPECT_FALSE(
        jsonUnsignedField("{\"c\":18446744073709551616}", "c", v));
}

// ---- jsonStringField ------------------------------------------------------

TEST(JsonStringField, ReadsAndUnescapes)
{
    std::string s;
    EXPECT_TRUE(jsonStringField("{\"k\":\"plain\"}", "k", s));
    EXPECT_EQ(s, "plain");
    EXPECT_TRUE(
        jsonStringField("{\"k\":\"a\\\"b\\\\c\\nd\\te\"}", "k", s));
    EXPECT_EQ(s, "a\"b\\c\nd\te");
    EXPECT_TRUE(jsonStringField("{\"k\":\"\"}", "k", s));
    EXPECT_EQ(s, "");
}

TEST(JsonStringField, KeyPositionRulesApply)
{
    std::string s;
    // The needle inside a string value is not a key.
    EXPECT_TRUE(jsonStringField(
        "{\"note\":\"k\",\"k\":\"real\"}", "k", s));
    EXPECT_EQ(s, "real");
    // Key bound to a number, not a string.
    EXPECT_FALSE(jsonStringField("{\"k\":5}", "k", s));
}
