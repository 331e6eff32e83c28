#include "harness/journal.hh"

#include <cinttypes>
#include <vector>

#include <unistd.h>

#include "harness/report.hh"
#include "sim/log.hh"

namespace ih
{

std::string
ShardSpec::str() const
{
    return strprintf("%u/%u", index, count);
}

// --------------------------------------------------------------------------
// Result wire format
// --------------------------------------------------------------------------

namespace
{

/** Bump when the field list below changes. */
constexpr const char *kPayloadMagic = "ihres1";
constexpr std::size_t kPayloadFields = 17; // magic + 16 fields

} // namespace

std::string
serializeResult(const ExperimentResult &r)
{
    // '|'-separated fixed field list. The strings are app/arch names
    // from a closed set; assert rather than escape.
    IH_ASSERT(r.app.find('|') == std::string::npos &&
                  r.arch.find('|') == std::string::npos,
              "result strings must not contain '|' ('%s'/'%s')",
              r.app.c_str(), r.arch.c_str());
    std::string out = kPayloadMagic;
    const auto u64 = [&out](std::uint64_t v) {
        out += strprintf("|%" PRIu64, v);
    };
    out += '|';
    out += r.app;
    out += '|';
    out += r.arch;
    u64(r.run.completion);
    u64(r.run.purgeCycles);
    u64(r.run.transitionCycles);
    u64(r.run.reconfigCycles);
    u64(r.run.transitions);
    out += '|' + fmtDouble(r.run.l1MissRate);
    out += '|' + fmtDouble(r.run.l2MissRate);
    out += '|' + fmtDouble(r.run.interactivityPerSec);
    u64(r.run.secureCores);
    u64(r.run.instructions);
    u64(r.run.isolationViolations);
    u64(r.run.blockedAccesses);
    u64(r.decidedSplit);
    u64(r.probes);
    return out;
}

bool
deserializeResult(const std::string &payload, ExperimentResult &r)
{
    const std::vector<std::string> f = splitOn(payload, '|');
    if (f.size() != kPayloadFields || f[0] != kPayloadMagic)
        return false;

    ExperimentResult out;
    out.app = f[1];
    out.arch = f[2];
    std::uint64_t u = 0;
    std::size_t i = 3;
    const auto getU = [&](std::uint64_t &dst) {
        if (!parseU64(f[i++], u))
            return false;
        dst = u;
        return true;
    };
    std::uint64_t secure = 0, decided = 0, probes = 0;
    if (!getU(out.run.completion) || !getU(out.run.purgeCycles) ||
        !getU(out.run.transitionCycles) ||
        !getU(out.run.reconfigCycles) || !getU(out.run.transitions))
        return false;
    if (!parseF64(f[i++], out.run.l1MissRate) ||
        !parseF64(f[i++], out.run.l2MissRate) ||
        !parseF64(f[i++], out.run.interactivityPerSec))
        return false;
    if (!getU(secure) || !getU(out.run.instructions) ||
        !getU(out.run.isolationViolations) ||
        !getU(out.run.blockedAccesses) || !getU(decided) ||
        !getU(probes))
        return false;
    out.run.secureCores = static_cast<unsigned>(secure);
    out.decidedSplit = static_cast<unsigned>(decided);
    out.probes = static_cast<unsigned>(probes);
    r = std::move(out);
    return true;
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
checksumHex(const std::string &payload)
{
    return strprintf("%016" PRIx64, fnv1a64(payload));
}

// --------------------------------------------------------------------------
// PayloadJournal
// --------------------------------------------------------------------------

PayloadJournal::PayloadJournal(std::string path, std::string sweep_id,
                               std::size_t jobs, ShardSpec shard,
                               Validator validate)
    : path_(std::move(path)), sweepId_(std::move(sweep_id)), jobs_(jobs),
      shard_(shard), validate_(std::move(validate))
{
    IH_ASSERT(validate_ != nullptr,
              "journal '%s' needs a payload validator", path_.c_str());
}

PayloadJournal::~PayloadJournal()
{
    if (f_)
        std::fclose(f_);
}

std::string
PayloadJournal::headerLine() const
{
    JsonWriter w;
    w.beginObject();
    w.key("journal").value("ih-sweep-journal/v1");
    w.key("sweep").value(sweepId_);
    w.key("jobs").value(std::uint64_t{jobs_});
    w.key("shard").value(shard_.str());
    w.endObject();
    return w.str() + "\n";
}

namespace
{

/** The whole journal file at @p path; "" when it does not exist. */
std::string
readJournal(const std::string &path)
{
    std::string text;
    if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            text.append(buf, n);
        const bool rderr = std::ferror(in) != 0;
        std::fclose(in);
        if (rderr)
            throw JournalError("read error on journal '" + path + "'");
    }
    return text;
}

/**
 * The completed jobs in journal @p text (read from @p path), under the
 * corruption contract. The header must name @p sweep_id and @p jobs,
 * and the shard @p expect when given; records must belong to the
 * header's shard.
 */
std::map<std::size_t, PayloadJournal::Entry>
parseJournal(const std::string &path, const std::string &text,
             const std::string &sweep_id, std::size_t jobs,
             const ShardSpec *expect,
             const PayloadJournal::Validator &validate)
{
    // Split into lines; text after the last '\n' is a truncated
    // trailing record (the expected crash artifact).
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            lines.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    if (start < text.size())
        lines.push_back(text.substr(start));

    std::string hsweep, hshard;
    std::uint64_t hjobs = 0;
    unsigned long sidx = 0, scnt = 0;
    if (lines.empty() || !jsonStringField(lines[0], "journal", hsweep) ||
        hsweep != "ih-sweep-journal/v1")
        throw JournalError("'" + path +
                           "' is not an ih-sweep-journal/v1 file");
    if (!jsonStringField(lines[0], "sweep", hsweep) ||
        !jsonUnsignedField(lines[0], "jobs", hjobs) ||
        !jsonStringField(lines[0], "shard", hshard) ||
        !parseShardSpec("journal shard", hshard.c_str(), 4096, sidx, scnt))
        throw JournalError("journal '" + path + "' has a malformed header");
    const ShardSpec shard{static_cast<unsigned>(sidx),
                          static_cast<unsigned>(scnt)};
    if (hsweep != sweep_id || hjobs != jobs ||
        (expect && shard.str() != expect->str()))
        throw JournalError(strprintf(
            "journal '%s' belongs to sweep %s (%" PRIu64
            " jobs, shard %s), not %s (%zu jobs%s%s)",
            path.c_str(), hsweep.c_str(), hjobs, hshard.c_str(),
            sweep_id.c_str(), jobs, expect ? ", shard " : "",
            expect ? expect->str().c_str() : ""));

    std::map<std::size_t, PayloadJournal::Entry> done;
    for (std::size_t li = 1; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        const bool last = li + 1 == lines.size();
        std::uint64_t job = 0;
        std::uint64_t attempts = 1;
        std::string sum, payload;
        std::string reason;
        PayloadJournal::Entry e;
        if (line.empty() && last)
            continue; // trailing newline artifact
        if (!jsonUnsignedField(line, "job", job) ||
            !jsonStringField(line, "sum", sum) ||
            !jsonStringField(line, "payload", payload)) {
            reason = "unparseable record";
        } else if (checksumHex(payload) != sum) {
            reason = "checksum mismatch";
        } else if (job >= jobs || !shard.owns(job)) {
            reason = "job id outside this sweep/shard";
        } else if (!validate(payload)) {
            reason = "undecodable payload";
        }
        if (!reason.empty()) {
            if (last) {
                // The one damage pattern a crash can produce: tolerate
                // it, the job simply re-runs.
                warn("journal '%s': dropping damaged final record (%s); "
                     "job will re-run",
                     path.c_str(), reason.c_str());
                continue;
            }
            throw JournalError(strprintf(
                "journal '%s' record %zu: %s (not the final record — "
                "corruption beyond the crash model)",
                path.c_str(), li, reason.c_str()));
        }
        jsonUnsignedField(line, "attempts", attempts);
        e.attempts = static_cast<unsigned>(attempts);
        e.payload = std::move(payload);
        const auto it = done.find(job);
        if (it != done.end()) {
            if (checksumHex(it->second.payload) != checksumHex(e.payload))
                throw JournalError(strprintf(
                    "journal '%s': job %" PRIu64
                    " recorded twice with different checksums "
                    "(determinism violation)",
                    path.c_str(), job));
            continue; // idempotent replayed append
        }
        done.emplace(job, std::move(e));
    }
    return done;
}

} // namespace

std::map<std::size_t, PayloadJournal::Entry>
PayloadJournal::open()
{
    IH_ASSERT(!f_, "journal '%s' opened twice", path_.c_str());
    std::map<std::size_t, Entry> done;
    const std::string text = readJournal(path_);
    if (text.empty()) {
        // Bootstrap: the header goes through the atomic temp+rename
        // writeTextFile, so a crash mid-bootstrap leaves no file at
        // all — never a half-written header a resume would misparse.
        writeTextFile(path_, headerLine());
    } else {
        done = parseJournal(path_, text, sweepId_, jobs_, &shard_,
                            validate_);
    }

    f_ = std::fopen(path_.c_str(), "a");
    if (!f_)
        throw JournalError("cannot open journal '" + path_ +
                           "' for appending");
    return done;
}

std::map<std::size_t, PayloadJournal::Entry>
PayloadJournal::load(const std::string &path, const std::string &sweep_id,
                     std::size_t jobs, const Validator &validate)
{
    const std::string text = readJournal(path);
    if (text.empty())
        throw JournalError("journal '" + path + "' is absent or empty");
    return parseJournal(path, text, sweep_id, jobs, nullptr, validate);
}

void
PayloadJournal::append(std::size_t job, const std::string &payload,
                       unsigned attempts)
{
    IH_ASSERT(f_, "journal '%s' append before open", path_.c_str());
    JsonWriter w;
    w.beginObject();
    w.key("job").value(std::uint64_t{job});
    if (attempts > 1)
        w.key("attempts").value(std::uint64_t{attempts});
    w.key("sum").value(checksumHex(payload));
    w.key("payload").value(payload);
    w.endObject();
    const std::string line = w.str() + "\n";

    std::lock_guard<std::mutex> lk(mtx_);
    if (std::fwrite(line.data(), 1, line.size(), f_) != line.size() ||
        std::fflush(f_) != 0 || ::fsync(::fileno(f_)) != 0)
        fatal("journal '%s': durable append failed", path_.c_str());
}

} // namespace ih
