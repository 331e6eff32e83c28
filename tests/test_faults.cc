/**
 * @file
 * Fault-tolerance tests: fault-plan parsing, the exact result wire
 * format, the append-only resume journal (bootstrap, reload, the
 * corruption contract), resume-runs-only-incomplete-jobs, and the
 * --isolate supervisor (crash containment, timeouts, bounded retries,
 * the retry-checksum determinism gate), and the payload core under a
 * codec that is not the experiment one, including a --merge of its
 * shard journals.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/isolate.hh"
#include "harness/journal.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

// TSan slows the forked isolate children by an order of magnitude, so
// a wall-clock per-job timeout sized for native builds trips on
// healthy cells. Scale it; the seeded hang is 60 s and still trips.
#if defined(__SANITIZE_THREAD__)
constexpr int kTimeoutScale = 20;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kTimeoutScale = 20;
#else
constexpr int kTimeoutScale = 1;
#endif
#else
constexpr int kTimeoutScale = 1;
#endif

/** A fast app spec so the forked/parallel runs stay sub-second. */
AppSpec
tiny(const char *name = "<AES, QUERY>")
{
    AppSpec spec = findApp(name, 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 2;
    spec.secureThreads = 2;
    return spec;
}

/** Six-job grid spanning two apps and three architectures. */
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

/** A journal path inside gtest's per-test temp dir. */
std::string
journalPath(const char *name)
{
    const std::string p = ::testing::TempDir() + name;
    std::remove(p.c_str());
    return p;
}

/** A result with values chosen to stress the wire format. */
ExperimentResult
nastyResult()
{
    ExperimentResult r;
    r.app = "<AES, QUERY>";
    r.arch = "ironhide";
    r.run.completion = (std::uint64_t{1} << 53) + 1; // not double-exact
    r.run.purgeCycles = UINT64_MAX;
    r.run.transitionCycles = 0;
    r.run.reconfigCycles = 123456789012345ull;
    r.run.transitions = 7;
    r.run.l1MissRate = 0.1;               // not binary-representable
    r.run.l2MissRate = 1.0 / 3.0;         // needs all 17 digits
    // Smallest *normal* double: subnormals underflow strtod (ERANGE)
    // and are rightly rejected — no real run produces them.
    r.run.interactivityPerSec = 2.2250738585072014e-308;
    r.run.secureCores = 61;
    r.run.instructions = 999999999999999999ull;
    r.run.isolationViolations = 1;
    r.run.blockedAccesses = 42;
    r.decidedSplit = 19;
    r.probes = 6;
    return r;
}

/** The experiment sweeps' journal validator: an "ihres1" payload. */
bool
isResult(const std::string &payload)
{
    ExperimentResult r;
    return deserializeResult(payload, r);
}

/** The payload tests' string codec: "cell-..." payloads that no
 *  experiment decoder accepts. */
bool
isCell(const std::string &payload)
{
    return payload.rfind("cell-", 0) == 0;
}

/** NONDET's perturbation of a cell payload (still passes isCell). */
std::string
perturbCell(const std::string &payload)
{
    return payload + "0";
}

/**
 * Garble the @p nth record's checksum in the journal at @p path
 * (0-based, counting record lines only — the header is line 0).
 */
void
garbleRecordSum(const std::string &path, std::size_t nth)
{
    std::string text = readTextFile(path);
    std::size_t pos = 0;
    for (std::size_t seen = 0;; ++seen) {
        pos = text.find("\"sum\":\"", pos);
        ASSERT_NE(pos, std::string::npos);
        if (seen == nth)
            break;
        ++pos;
    }
    char &digit = text[pos + 7];
    digit = digit == '0' ? '1' : '0';
    writeTextFile(path, text);
}

/**
 * Overwrite the value of @p key in record @p record (0-based, counting
 * record lines only — the header is line 0) of the journal at @p path
 * with @p value, verbatim.
 */
void
setRecordField(const std::string &path, std::size_t record,
               const std::string &key, const std::string &value)
{
    std::string text = readTextFile(path);
    std::size_t pos = 0;
    for (std::size_t line = 0; line <= record; ++line)
        pos = text.find('\n', pos) + 1;
    const std::string needle = "\"" + key + "\":";
    pos = text.find(needle, pos);
    ASSERT_NE(pos, std::string::npos);
    pos += needle.size();
    text.replace(pos, text.find(',', pos) - pos, value);
    writeTextFile(path, text);
}

/** One damaged record field: the key and its new value, verbatim. */
struct FieldDamage
{
    const char *key;
    const char *value;
};

void
PrintTo(const FieldDamage &d, std::ostream *os)
{
    *os << d.key << ':' << d.value;
}

} // namespace

// --------------------------------------------------------------------------
// Fault-plan parsing
// --------------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryFaultKind)
{
    const FaultPlan plan = FaultPlan::parse(
        "job:3:crash,job:7:hang_ms:250,job:1:fail,job:2:kill,"
        "job:0:nondet");
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.at(3).kind, FaultKind::CRASH);
    EXPECT_EQ(plan.at(7).kind, FaultKind::HANG_MS);
    EXPECT_EQ(plan.at(7).ms, 250u);
    EXPECT_EQ(plan.at(1).kind, FaultKind::FAIL);
    EXPECT_EQ(plan.at(2).kind, FaultKind::KILL);
    EXPECT_EQ(plan.at(0).kind, FaultKind::NONDET);
    // Unlisted jobs are untouched.
    EXPECT_EQ(plan.at(5).kind, FaultKind::NONE);
    EXPECT_TRUE(FaultPlan().empty());
    EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    // A typo'd plan silently injecting nothing would fake robustness,
    // so every malformation is a loud error.
    for (const char *bad :
         {"x", "job", "job:1", "job:1:boom", "job:a:crash",
          "job:1:hang_ms", "job:1:hang_ms:abc", "job:1:crash:extra",
          "1:crash", "job:1:CRASH"})
        EXPECT_THROW(FaultPlan::parse(bad), std::runtime_error)
            << "accepted '" << bad << "'";
    // Two faults for the same job: ambiguous, refuse.
    EXPECT_THROW(FaultPlan::parse("job:1:crash,job:1:fail"),
                 std::runtime_error);
}

// --------------------------------------------------------------------------
// The result wire format (journal payloads and the supervisor pipe)
// --------------------------------------------------------------------------

TEST(WireFormat, RoundTripsEveryFieldExactly)
{
    const ExperimentResult r = nastyResult();
    const std::string payload = serializeResult(r);

    ExperimentResult back;
    ASSERT_TRUE(deserializeResult(payload, back));
    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.arch, r.arch);
    EXPECT_EQ(back.run.completion, r.run.completion);
    EXPECT_EQ(back.run.purgeCycles, r.run.purgeCycles);
    EXPECT_EQ(back.run.transitionCycles, r.run.transitionCycles);
    EXPECT_EQ(back.run.reconfigCycles, r.run.reconfigCycles);
    EXPECT_EQ(back.run.transitions, r.run.transitions);
    // Bitwise double equality: %.17g + strtod is lossless.
    EXPECT_EQ(back.run.l1MissRate, r.run.l1MissRate);
    EXPECT_EQ(back.run.l2MissRate, r.run.l2MissRate);
    EXPECT_EQ(back.run.interactivityPerSec, r.run.interactivityPerSec);
    EXPECT_EQ(back.run.secureCores, r.run.secureCores);
    EXPECT_EQ(back.run.instructions, r.run.instructions);
    EXPECT_EQ(back.run.isolationViolations, r.run.isolationViolations);
    EXPECT_EQ(back.run.blockedAccesses, r.run.blockedAccesses);
    EXPECT_EQ(back.decidedSplit, r.decidedSplit);
    EXPECT_EQ(back.probes, r.probes);

    // The round-trip is also serialization-stable (checksums agree).
    EXPECT_EQ(serializeResult(back), payload);
}

TEST(WireFormat, RejectsDamagedPayloads)
{
    const std::string good = serializeResult(nastyResult());
    ExperimentResult r;
    EXPECT_FALSE(deserializeResult("", r));
    EXPECT_FALSE(deserializeResult("ihres1", r));
    EXPECT_FALSE(deserializeResult("wrong|" + good, r));
    // Truncated: drop the last field.
    EXPECT_FALSE(
        deserializeResult(good.substr(0, good.rfind('|')), r));
    // Extra trailing field.
    EXPECT_FALSE(deserializeResult(good + "|0", r));
    // A numeric field replaced with garbage.
    std::string garbled = good;
    garbled.replace(garbled.rfind('|') + 1, std::string::npos, "x");
    EXPECT_FALSE(deserializeResult(garbled, r));
    // The unsigned fields (secure_cores, decided_split, probes) reject a
    // value above UINT32_MAX rather than truncating it.
    const std::string head = "ihres1|a|mi6|0|0|0|0|0|0|0|0|";
    ASSERT_TRUE(deserializeResult(head + "3|0|0|0|9|4294967295", r));
    EXPECT_EQ(r.probes, 4294967295u);
    EXPECT_FALSE(deserializeResult(head + "4294967296|0|0|0|9|1", r));
    EXPECT_FALSE(deserializeResult(head + "3|0|0|0|4294967296|1", r));
    EXPECT_FALSE(deserializeResult(head + "3|0|0|0|9|4294967297", r));
}

TEST(WireFormat, ChecksumIsStableAndSensitive)
{
    // Pinned FNV-1a 64 vectors: the checksum is part of the on-disk
    // format, so a refactor that changes it must fail here.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(checksumHex(""), "cbf29ce484222325");
    EXPECT_NE(checksumHex("ihres1|a"), checksumHex("ihres1|b"));
}

// --------------------------------------------------------------------------
// The resume journal
// --------------------------------------------------------------------------

TEST(Journal, BootstrapsAppendsAndReloads)
{
    const std::string path = journalPath("journal_basic.jsonl");
    const std::string payload = serializeResult(nastyResult());
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        EXPECT_TRUE(j.open().empty());
        j.append(2, payload, 1);
        j.append(4, payload, 3);
    }
    PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
    const std::map<std::size_t, PayloadJournal::Entry> done = j.open();
    ASSERT_EQ(done.size(), 2u);
    ASSERT_TRUE(done.count(2));
    ASSERT_TRUE(done.count(4));
    EXPECT_EQ(done.at(2).attempts, 1u);
    EXPECT_EQ(done.at(4).attempts, 3u);
    EXPECT_EQ(done.at(2).payload, payload);
}

TEST(Journal, RejectsAForeignHeader)
{
    const std::string path = journalPath("journal_header.jsonl");
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
    }
    // Wrong sweep id, wrong job count, wrong shard: each must refuse —
    // resuming the wrong sweep would silently skip its jobs.
    EXPECT_THROW(
        PayloadJournal(path, "other", 6, ShardSpec{}, isResult).open(),
        JournalError);
    EXPECT_THROW(
        PayloadJournal(path, "unit", 7, ShardSpec{}, isResult).open(),
        JournalError);
    EXPECT_THROW(
        PayloadJournal(path, "unit", 6, ShardSpec{1, 3}, isResult).open(),
        JournalError);
    // Not a journal at all.
    writeTextFile(path, "{\"whatever\":1}\n");
    EXPECT_THROW(
        PayloadJournal(path, "unit", 6, ShardSpec{}, isResult).open(),
        JournalError);
}

TEST(Journal, DropsATruncatedFinalRecord)
{
    const std::string path = journalPath("journal_trunc.jsonl");
    const std::string payload = serializeResult(nastyResult());
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
        j.append(0, payload, 1);
        j.append(1, payload, 1);
        j.append(2, payload, 1);
    }
    // Chop mid-record: the crash artifact the design promises to heal.
    const std::string text = readTextFile(path);
    writeTextFile(path, text.substr(0, text.size() - 20));

    PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
    const auto done = j.open();
    EXPECT_EQ(done.size(), 2u);
    EXPECT_FALSE(done.count(2)); // the damaged record re-runs
}

TEST(Journal, ChecksumDamageIsLenientOnlyOnTheFinalRecord)
{
    const std::string path = journalPath("journal_sum.jsonl");
    const std::string payload = serializeResult(nastyResult());
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
        j.append(0, payload, 1);
        j.append(1, payload, 1);
        j.append(2, payload, 1);
    }
    // Garbled *final* record: dropped, job re-runs.
    garbleRecordSum(path, 2);
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        const auto done = j.open();
        EXPECT_EQ(done.size(), 2u);
        EXPECT_FALSE(done.count(2));
    }
    // Garbled *middle* record: beyond the crash model — refuse loudly
    // rather than silently resume over unknown damage. The same file
    // as a --merge input is refused the same way.
    garbleRecordSum(path, 0);
    EXPECT_THROW(
        PayloadJournal(path, "unit", 6, ShardSpec{}, isResult).open(),
        JournalError);
    EXPECT_THROW(PayloadJournal::load(path, "unit", 6, isResult),
                 JournalError);
}

// A damaged job id or attempts count trips the same contract as any
// other damage: dropped with the warning on the final record (its job
// re-runs) and refused anywhere else. The record checksum covers both
// fields, so an id changed to another cell of the sweep never files the
// record under that cell. An attempts count must also be a bare decimal
// in [1, UINT32_MAX]; a record without the key means one attempt.
class RecordFieldDamage : public testing::TestWithParam<FieldDamage>
{
  protected:
    /** A fresh three-record journal; records 0 and 2 carry attempts 3,
     *  record 1 carries no attempts key. */
    std::string
    writeJournal(const char *name)
    {
        const std::string path = journalPath(name);
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
        j.append(0, payload, 3);
        j.append(1, payload, 1);
        j.append(2, payload, 3);
        return path;
    }

    const std::string payload = serializeResult(nastyResult());
};

TEST_P(RecordFieldDamage, OnTheFinalRecordItIsDroppedAndReRuns)
{
    const std::string path = writeJournal("journal_field_final.jsonl");
    setRecordField(path, 2, GetParam().key, GetParam().value);
    testing::internal::CaptureStderr();
    const auto done =
        PayloadJournal(path, "unit", 6, ShardSpec{}, isResult).open();
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_FALSE(done.count(2));
    EXPECT_EQ(done.at(0).attempts, 3u); // the intact records load
    EXPECT_EQ(done.at(1).attempts, 1u); // unchanged
    EXPECT_NE(err.find("dropping damaged final record"), std::string::npos)
        << err;
}

TEST_P(RecordFieldDamage, OnAMiddleRecordItIsRefused)
{
    const std::string path = writeJournal("journal_field_middle.jsonl");
    setRecordField(path, 0, GetParam().key, GetParam().value);
    EXPECT_THROW(
        PayloadJournal(path, "unit", 6, ShardSpec{}, isResult).open(),
        JournalError);
    EXPECT_THROW(PayloadJournal::load(path, "unit", 6, isResult),
                 JournalError);
}

INSTANTIATE_TEST_SUITE_P(
    Journal, RecordFieldDamage,
    testing::Values(FieldDamage{"attempts", "4294967297"},
                    FieldDamage{"attempts", "\"x\""},
                    FieldDamage{"attempts", "0"},
                    FieldDamage{"attempts", "3x"},
                    FieldDamage{"job", "3"}, FieldDamage{"job", "1"}));

TEST(Journal, AVersionOneJournalIsRefusedByItsVersion)
{
    // A v1 record's sum covers only its payload. The header refuses the
    // file before any record is read.
    const std::string path = journalPath("journal_v1.jsonl");
    const std::string payload = serializeResult(nastyResult());
    writeTextFile(path, "{\"journal\":\"ih-sweep-journal/v1\","
                        "\"sweep\":\"unit\",\"jobs\":6,\"shard\":\"0/1\"}\n"
                        "{\"job\":0,\"sum\":\"" +
                            checksumHex(payload) + "\",\"payload\":\"" +
                            payload + "\"}\n");
    try {
        PayloadJournal::load(path, "unit", 6, isResult);
        FAIL() << "a v1 journal loaded";
    } catch (const JournalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "is not an ih-sweep-journal/v2 file"),
                  std::string::npos)
            << e.what();
    }
}

// Seeded byte mutation of the journal reader. After any single-byte
// substitution in a valid three-record journal, a load either throws
// JournalError or returns only entries byte-equal to the original
// entry of the same job; it returns fewer only with the drop warning.
// Every byte position is tried with every digit (ids and counts), a
// newline (a split record) and seeded random bytes.
TEST(Journal, NoSingleByteSubstitutionAddsOrSwapsAnEntry)
{
    const std::string path = journalPath("journal_mutate.jsonl");
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
        for (unsigned job : {0u, 2u, 4u}) {
            ExperimentResult r = nastyResult();
            r.run.instructions += job; // a distinct payload per job
            j.append(job, serializeResult(r), job + 1);
        }
    }
    const auto original = PayloadJournal::load(path, "unit", 6, isResult);
    ASSERT_EQ(original.size(), 3u);
    const std::string text = readTextFile(path);

    Rng rng(0x6a6f75726e616cull);
    std::vector<std::string> violations;
    std::size_t mutants = 0;
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
        std::string subs = "0123456789\n";
        for (int k = 0; k < 3; ++k)
            subs += static_cast<char>(rng.nextRange(256));
        for (const char b : subs) {
            if (b == text[pos])
                continue;
            std::string mutant = text;
            mutant[pos] = b;
            std::FILE *f = std::fopen(path.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            ASSERT_EQ(std::fwrite(mutant.data(), 1, mutant.size(), f),
                      mutant.size());
            std::fclose(f);
            ++mutants;

            std::map<std::size_t, PayloadJournal::Entry> got;
            bool refused = false;
            testing::internal::CaptureStderr();
            try {
                got = PayloadJournal::load(path, "unit", 6, isResult);
            } catch (const JournalError &) {
                refused = true;
            }
            const std::string err = testing::internal::GetCapturedStderr();
            if (refused)
                continue;
            const std::string where = strprintf(
                "byte %zu (0x%02x -> 0x%02x)", pos,
                static_cast<unsigned char>(text[pos]),
                static_cast<unsigned char>(b));
            for (const auto &[job, e] : got) {
                const auto it = original.find(job);
                if (it == original.end())
                    violations.push_back(where + ": added job " +
                                         std::to_string(job));
                else if (e.payload != it->second.payload ||
                         e.attempts != it->second.attempts)
                    violations.push_back(where + ": changed job " +
                                         std::to_string(job));
            }
            if (got.size() < original.size() &&
                err.find("dropping damaged final record") ==
                    std::string::npos)
                violations.push_back(where + ": dropped an entry silently");
        }
    }
    EXPECT_GT(mutants, 10 * text.size());
    std::string first;
    for (std::size_t i = 0; i < violations.size() && i < 8; ++i)
        first += "\n  " + violations[i];
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first:" << first;
}

TEST(Journal, DuplicateRecordsCollapseUnlessTheyDisagree)
{
    const std::string path = journalPath("journal_dup.jsonl");
    const std::string payload = serializeResult(nastyResult());
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
        j.append(3, payload, 1);
        j.append(3, payload, 2); // replayed append, same payload: idempotent
    }
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        const auto done = j.open();
        EXPECT_EQ(done.size(), 1u);
        EXPECT_EQ(done.at(3).attempts, 1u); // first record wins
    }
    // The same job with a *different* (but self-consistent) payload is
    // a determinism violation, not a replay.
    ExperimentResult other = nastyResult();
    other.run.instructions += 1;
    {
        PayloadJournal j(path, "unit", 6, ShardSpec{}, isResult);
        j.open();
        j.append(3, serializeResult(other), 1);
    }
    EXPECT_THROW(
        PayloadJournal(path, "unit", 6, ShardSpec{}, isResult).open(),
        JournalError);
}

TEST(Journal, RejectsRecordsOutsideTheShard)
{
    const std::string path = journalPath("journal_shard.jsonl");
    const std::string payload = serializeResult(nastyResult());
    {
        // Shard 1/3 owns jobs 1 and 4 of six.
        PayloadJournal j(path, "unit", 6, ShardSpec{1, 3}, isResult);
        j.open();
        j.append(1, payload, 1);
        j.append(2, payload, 1); // not ours — damaged final record, dropped
    }
    PayloadJournal j(path, "unit", 6, ShardSpec{1, 3}, isResult);
    const auto done = j.open();
    EXPECT_EQ(done.size(), 1u);
    EXPECT_TRUE(done.count(1));
}

TEST(Journal, ResumeRunsOnlyTheIncompleteJobs)
{
    const std::string path = journalPath("journal_resume.jsonl");
    std::vector<SweepJob> jobs = testJobs();

    // First pass: job 2 fails (injected), the other five land in the
    // journal.
    SweepRunOptions opts;
    opts.threads = 2;
    opts.journalPath = path;
    const SweepOutcome first = runFaultTolerantSweep(
        "unit_resume", jobs, opts, FaultPlan::parse("job:2:fail"));
    EXPECT_EQ(first.exitCode(), kExitDegraded);
    EXPECT_EQ(first.failedCells(), std::vector<std::size_t>{2});
    EXPECT_EQ(first.resumed, 0u);

    // Second pass, no faults: count executions through the app
    // factory — exactly the one incomplete job may re-run.
    std::atomic<unsigned> executed{0};
    for (SweepJob &job : jobs) {
        const auto inner = job.app.make;
        job.app.make = [inner, &executed](const SysConfig &cfg) {
            ++executed;
            return inner(cfg);
        };
    }
    const SweepOutcome second =
        runFaultTolerantSweep("unit_resume", jobs, opts, FaultPlan());
    EXPECT_TRUE(second.complete());
    EXPECT_EQ(second.exitCode(), 0);
    EXPECT_EQ(second.resumed, jobs.size() - 1);
    EXPECT_EQ(executed.load(), 1u);

    // The healed sweep renders exactly like a never-failed one.
    const SweepOutcome fresh = runFaultTolerantSweep(
        "unit_resume", testJobs(), SweepRunOptions{}, FaultPlan());
    EXPECT_EQ(sweepToJson("unit_resume", jobs, second),
              sweepToJson("unit_resume", jobs, fresh));
}

// --------------------------------------------------------------------------
// The --isolate supervisor
// --------------------------------------------------------------------------

TEST(Isolate, MatchesTheInlinePathByteForByte)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions inline_opts;
    inline_opts.threads = 2;
    SweepRunOptions iso_opts = inline_opts;
    iso_opts.isolate = true;

    const SweepOutcome a =
        runFaultTolerantSweep("unit_iso", jobs, inline_opts, FaultPlan());
    const SweepOutcome b =
        runFaultTolerantSweep("unit_iso", jobs, iso_opts, FaultPlan());
    ASSERT_TRUE(a.complete());
    ASSERT_TRUE(b.complete());
    // Forking the jobs into children is unobservable in the report.
    EXPECT_EQ(sweepToJson("unit_iso", jobs, a),
              sweepToJson("unit_iso", jobs, b));
}

TEST(Isolate, ACrashFailsOnlyItsCellAfterBoundedRetries)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions opts;
    opts.threads = 2;
    opts.isolate = true;
    opts.retries = 2;
    const SweepOutcome out = runFaultTolerantSweep(
        "unit_crash", jobs, opts, FaultPlan::parse("job:2:crash"));

    EXPECT_EQ(out.exitCode(), kExitDegraded);
    EXPECT_EQ(out.failedCells(), std::vector<std::size_t>{2});
    EXPECT_EQ(out.cells[2].status, CellStatus::FAILED);
    EXPECT_EQ(out.cells[2].attempts, 3u); // 1 try + 2 retries
    EXPECT_NE(out.cells[2].error.find("signal"), std::string::npos);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (j != 2) {
            EXPECT_TRUE(out.cells[j].ok()) << "cell " << j;
        }
    }
}

TEST(Isolate, AHangTripsThePerJobTimeout)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions opts;
    opts.threads = 2;
    opts.isolate = true;
    opts.timeoutMs = 250 * kTimeoutScale;
    opts.retries = 1;
    const SweepOutcome out = runFaultTolerantSweep(
        "unit_hang", jobs, opts,
        FaultPlan::parse("job:1:hang_ms:60000"));

    EXPECT_EQ(out.exitCode(), kExitDegraded);
    EXPECT_EQ(out.failedCells(), std::vector<std::size_t>{1});
    EXPECT_EQ(out.cells[1].status, CellStatus::TIMEOUT);
    EXPECT_NE(out.cells[1].error.find(
                  "timed out after " +
                  std::to_string(250 * kTimeoutScale) + " ms"),
              std::string::npos);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (j != 1) {
            EXPECT_TRUE(out.cells[j].ok()) << "cell " << j;
        }
    }
}

TEST(Isolate, ANondeterministicRetryTripsTheChecksumGate)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions opts;
    opts.threads = 2;
    opts.isolate = true;
    const SweepOutcome out = runFaultTolerantSweep(
        "unit_nondet", jobs, opts, FaultPlan::parse("job:0:nondet"));

    // Attempt 1 emits a perturbed payload and dies; the retry's clean
    // payload disagrees — a flaky pass must surface as a failure.
    EXPECT_EQ(out.exitCode(), kExitDegraded);
    EXPECT_EQ(out.failedCells(), std::vector<std::size_t>{0});
    EXPECT_EQ(out.cells[0].status, CellStatus::FAILED);
    EXPECT_NE(out.cells[0].error.find("determinism"),
              std::string::npos);
}

TEST(Isolate, AnInjectedThrowIsReportedVerbatim)
{
    const std::vector<SweepJob> jobs = testJobs();
    SweepRunOptions opts;
    opts.threads = 2;
    opts.isolate = true;
    const SweepOutcome out = runFaultTolerantSweep(
        "unit_throw", jobs, opts, FaultPlan::parse("job:4:fail"));

    EXPECT_EQ(out.failedCells(), std::vector<std::size_t>{4});
    EXPECT_EQ(out.cells[4].status, CellStatus::FAILED);
    // The child ships the exception text through the pipe.
    EXPECT_NE(out.cells[4].error.find("injected failure"),
              std::string::npos);
}

// --------------------------------------------------------------------------
// The payload core under a codec that is not the experiment one
// --------------------------------------------------------------------------

TEST(PayloadSweep, AStringCodecGetsResumeIsolationAndTheRetryGate)
{
    // Payloads no experiment decoder accepts, and no simulation at all:
    // the core must shard, journal, isolate and fault-inject them
    // without knowing their format (the serving bench's route).
    constexpr std::size_t kJobs = 5;
    std::atomic<unsigned> calls{0};
    const auto fn = [&calls](std::size_t i) {
        ++calls;
        return "cell-" + std::to_string(i * i);
    };
    const auto validate = isCell;
    const auto perturb = perturbCell;
    SweepRunOptions opts;
    opts.threads = 2;

    // A failed job, then a journal resume re-runs only that job.
    SweepRunOptions journaled = opts;
    journaled.journalPath = journalPath("payload_resume.jsonl");
    const PayloadOutcome first = runFaultTolerantPayloadSweep(
        "unit_payload", kJobs, fn, validate, perturb, journaled,
        FaultPlan::parse("job:3:fail"));
    EXPECT_EQ(first.failedCells(), std::vector<std::size_t>{3});
    EXPECT_EQ(calls.load(), kJobs - 1); // the fault fires before fn
    calls = 0;
    const PayloadOutcome resumed = runFaultTolerantPayloadSweep(
        "unit_payload", kJobs, fn, validate, perturb, journaled,
        FaultPlan());
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.resumed, kJobs - 1);
    EXPECT_EQ(calls.load(), 1u);

    // Forked children ship back exactly the inline payloads.
    const PayloadOutcome inline_out = runFaultTolerantPayloadSweep(
        "unit_payload", kJobs, fn, validate, perturb, opts, FaultPlan());
    SweepRunOptions isolated = opts;
    isolated.isolate = true;
    const PayloadOutcome iso_out = runFaultTolerantPayloadSweep(
        "unit_payload", kJobs, fn, validate, perturb, isolated,
        FaultPlan());
    ASSERT_TRUE(iso_out.complete());
    EXPECT_EQ(iso_out.payloads, inline_out.payloads);
    EXPECT_EQ(resumed.payloads, inline_out.payloads);

    // NONDET emits the caller's perturbation on attempt 1; the clean
    // retry disagrees and the checksum gate fails the cell.
    const PayloadOutcome flaky = runFaultTolerantPayloadSweep(
        "unit_payload", kJobs, fn, validate, perturb, isolated,
        FaultPlan::parse("job:1:nondet"));
    EXPECT_EQ(flaky.failedCells(), std::vector<std::size_t>{1});
    EXPECT_NE(flaky.cells[1].error.find("determinism"), std::string::npos);
}

TEST(PayloadSweep, MergingShardJournalsRebuildsTheUnshardedPayloads)
{
    constexpr std::size_t kJobs = 5;
    std::atomic<unsigned> calls{0};
    const auto fn = [&calls](std::size_t i) {
        ++calls;
        return "cell-" + std::to_string(i * i);
    };
    SweepRunOptions opts;
    opts.threads = 2;
    const PayloadOutcome whole = runFaultTolerantPayloadSweep(
        "unit_payload_merge", kJobs, fn, isCell, perturbCell, opts,
        FaultPlan());

    // Two shards, each journaled, then a merge of the two journals: a
    // resume in which every cell is already complete.
    SweepRunOptions merge;
    for (unsigned s = 0; s < 2; ++s) {
        SweepRunOptions shard = opts;
        shard.shard = ShardSpec{s, 2};
        shard.journalPath = journalPath(
            s == 0 ? "payload_merge_s0.jsonl" : "payload_merge_s1.jsonl");
        runFaultTolerantPayloadSweep("unit_payload_merge", kJobs, fn,
                                     isCell, perturbCell, shard,
                                     FaultPlan());
        merge.mergePaths.push_back(shard.journalPath);
    }
    calls = 0;
    const PayloadOutcome merged = runFaultTolerantPayloadSweep(
        "unit_payload_merge", kJobs, fn, isCell, perturbCell, merge,
        FaultPlan());
    EXPECT_EQ(calls.load(), 0u);
    EXPECT_TRUE(merged.complete());
    EXPECT_FALSE(merged.sharded());
    EXPECT_EQ(merged.resumed, kJobs);
    EXPECT_EQ(merged.payloads, whole.payloads);
}
