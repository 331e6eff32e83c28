/**
 * @file
 * Crash-safe sweep journal + the experiment-result wire format.
 *
 * A journal is an append-only JSONL file: one header line identifying
 * the format version and the sweep (id, job count, shard) followed by
 * one record per *completed* job, whose checksum covers its job id,
 * attempts count and payload. The header is bootstrapped via
 * write-temp + fsync + rename (a partially-written journal file can
 * never exist); every record append is fsynced before the runner moves
 * on, so after a kill -9 / power loss the journal holds every job
 * whose completion was acknowledged, plus at most one truncated
 * trailing record.
 *
 * Corruption contract (tests/test_faults.cc pins every arm; open()
 * and the read-only --merge loader load() share it):
 *  - a truncated or checksum-garbled *final* record is the expected
 *    crash artifact: it is dropped and its job re-runs;
 *  - the same damage on a *non-final* record means the file was
 *    corrupted outside the crash model: load throws JournalError —
 *    never silently drop a middle record;
 *  - duplicate job ids with identical payloads collapse to one entry
 *    (an append replayed across a crash); with different payloads the
 *    journal lies about determinism and load throws.
 *
 * The wire format (serializeResult/deserializeResult) round-trips an
 * ExperimentResult exactly — integers verbatim, doubles via %.17g —
 * so a resumed sweep's report is byte-identical to an uninterrupted
 * one. The isolation supervisor reuses the same format (and checksum)
 * as its child→parent pipe protocol.
 */

#ifndef IH_HARNESS_JOURNAL_HH
#define IH_HARNESS_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"

namespace ih
{

/** Deterministic shard assignment parsed from IRONHIDE_SHARD. */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;

    /** Is the sweep actually sharded? */
    bool active() const { return count > 1; }
    /** Does this shard own canonical job @p job? */
    bool owns(std::size_t job) const { return job % count == index; }
    /** "i/N" — the report/journal spelling. */
    std::string str() const;
};

/** Exact text serialization of one ExperimentResult ("ihres1|..."). */
std::string serializeResult(const ExperimentResult &r);

/** Inverse of serializeResult(); false on any malformed payload. */
bool deserializeResult(const std::string &payload, ExperimentResult &r);

/** FNV-1a 64-bit over @p s — the journal/pipe payload checksum. */
std::uint64_t fnv1a64(const std::string &s);

/** fnv1a64 rendered as the fixed-width hex the journal stores. */
std::string checksumHex(const std::string &payload);

/** Journal corruption / mismatch errors — always loud, never dropped. */
class JournalError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The sweep journal. Records are opaque payload strings vetted by a
 * caller-supplied validator, so one journal serves every payload codec
 * (the experiment sweeps' "ihres1", the serving bench's "ihserve1")
 * without learning their field lists. open() loads (or bootstraps) the
 * file and returns the completed entries; append() records one more
 * completed job durably. Appends are thread-safe (the inline sweep
 * path calls from worker threads).
 */
class PayloadJournal
{
  public:
    /** Is @p payload well-formed? A record failing this counts as
     *  damage (see the contract above). */
    using Validator = std::function<bool(const std::string &payload)>;

    PayloadJournal(std::string path, std::string sweep_id,
                   std::size_t jobs, ShardSpec shard, Validator validate);
    ~PayloadJournal();

    PayloadJournal(const PayloadJournal &) = delete;
    PayloadJournal &operator=(const PayloadJournal &) = delete;

    struct Entry
    {
        std::string payload;
        unsigned attempts = 1;
    };

    /**
     * Load an existing journal (validating that its header names this
     * exact sweep/job-count/shard) or atomically bootstrap a fresh
     * one. Returns the completed jobs found, keyed by canonical job
     * id. Throws JournalError per the corruption contract above.
     */
    std::map<std::size_t, Entry> open();

    /**
     * Read-only load of an existing journal of this sweep/job count,
     * whatever shard its header names — a --merge input. Its records
     * must belong to that shard. Throws JournalError per the
     * corruption contract above, and when the file is absent or empty.
     */
    static std::map<std::size_t, Entry>
    load(const std::string &path, const std::string &sweep_id,
         std::size_t jobs, const Validator &validate);

    /** Durably append one completed job (write + flush + fsync). */
    void append(std::size_t job, const std::string &payload,
                unsigned attempts);

  private:
    std::string path_;
    std::string sweepId_;
    std::size_t jobs_;
    ShardSpec shard_;
    Validator validate_;
    std::FILE *f_ = nullptr;
    std::mutex mtx_;
};

} // namespace ih

#endif // IH_HARNESS_JOURNAL_HH
