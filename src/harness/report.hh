/**
 * @file
 * Reporting: fixed-width plain-text tables, normalization helpers and
 * geomean rows shared by every bench binary so the regenerated figures
 * all read the same way, plus a minimal streaming JSON writer for the
 * machine-readable sweep reports, the strict parsers, and the knob
 * registry that reads every environment knob.
 */

#ifndef IH_HARNESS_REPORT_HH
#define IH_HARNESS_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ih
{

/** Fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void addSeparator();

    /** Render with column auto-sizing. */
    std::string toString() const;

    /** Render to stdout. */
    void print() const;

    /** Format helpers. */
    static std::string num(double v, int precision = 2);
    static std::string pct(double v, int precision = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a bench banner with the figure/table being regenerated. */
void printBanner(const std::string &experiment_id,
                 const std::string &description);

/**
 * Minimal streaming JSON writer. Commas and quoting are handled
 * internally; the caller is responsible for balancing begin/end calls.
 * No external dependency so the harness stays self-contained.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(unsigned v) { return value(std::uint64_t{v}); }
    JsonWriter &value(bool v);

    /** The document built so far. */
    const std::string &str() const { return out_; }

    /** JSON string escaping (quotes, backslashes, control chars). */
    static std::string escape(const std::string &s);

  private:
    void preValue();

    std::string out_;
    /** One entry per open container: has it seen an element yet? */
    std::vector<bool> hasElem_;
    bool afterKey_ = false;
};

/**
 * Every environment knob, in the row order of README.md's knob table.
 * The registry in report.cc holds one row per knob (name, bounds,
 * default); the four accessors below are the only readers of the
 * environment, and scripts/ih_lint.py checks the rows against the
 * README table.
 */
enum class Knob : std::uint8_t
{
    SCALE = 0,      ///< IRONHIDE_SCALE (real)
    THREADS,        ///< IRONHIDE_THREADS (workers)
    DOMAINS,        ///< IRONHIDE_DOMAINS (workers)
    SHARD,          ///< IRONHIDE_SHARD (text: parseShardSpec)
    JOB_TIMEOUT_MS, ///< IRONHIDE_JOB_TIMEOUT_MS (count)
    JOB_RETRIES,    ///< IRONHIDE_JOB_RETRIES (count)
    ATTACK_TRIALS,  ///< IRONHIDE_ATTACK_TRIALS (count)
    MAX_LOAD_STEPS, ///< IRONHIDE_MAX_LOAD_STEPS (count)
    SERVE_SESSIONS, ///< IRONHIDE_SERVE_SESSIONS (count)
    SERVE_APPS,     ///< IRONHIDE_SERVE_APPS (count)
    SERVE_SEED,     ///< IRONHIDE_SERVE_SEED (count)
    SERVE_LAMBDA0,  ///< IRONHIDE_SERVE_LAMBDA0 (real)
    SERVE_CALIB,    ///< IRONHIDE_SERVE_CALIB (text: pinned|per-arch)
    PERF_SCALE,     ///< IRONHIDE_PERF_SCALE (real)
    PERF_REPEATS,   ///< IRONHIDE_PERF_REPEATS (count)
    PERF_TOLERANCE, ///< IRONHIDE_PERF_TOLERANCE (real)
    MICRO_MS,       ///< IRONHIDE_MICRO_MS (real)
    FAULT_INJECT,   ///< IH_FAULT_INJECT (text: FaultPlan::parse)
    DUMP_GOLDEN,    ///< IH_DUMP_GOLDEN (text: presence flag)
};

/** A count knob: unset or empty gives the row's default silently;
 *  anything but a complete unsigned decimal in the row's [min, max]
 *  warns and gives the default. */
unsigned long knobCount(Knob k);

/** A workers knob: knobCount() with 0 meaning the hardware
 *  concurrency, clamped to [1, the row's max]. */
unsigned knobWorkers(Knob k);

/** A real knob: parsePositiveDouble() with the row's default. */
double knobReal(Knob k);

/** A text knob's raw value, for its own strict parser; nullptr when
 *  unset or empty. */
const char *knobText(Knob k);

/**
 * Strictly-validated positive-double parsing for environment knobs.
 * Unlike std::atof — which silently accepts trailing garbage
 * ("0.15abc" parses as 0.15) and non-finite values ("inf" would
 * disable a gate tolerance outright) — this accepts only a complete,
 * finite, in-range, strictly positive decimal number. Anything else
 * warns (naming @p name) and returns @p fallback; a null/empty
 * @p value returns @p fallback silently.
 */
double parsePositiveDouble(const char *name, const char *value,
                           double fallback);

/**
 * Strictly-validated "index/count" shard-spec parsing for
 * IRONHIDE_SHARD. Accepts only "<i>/<N>" where both halves are
 * complete decimal numbers (no sign, no trailing garbage), N is in
 * [1, @p max_count] and i < N — "2/", "/3", "1/0" and "3/2" are all
 * rejected. On success sets @p index / @p count and returns true;
 * anything else warns (naming @p name) and returns false, except a
 * null/empty @p value, which fails silently (unset knob).
 */
bool parseShardSpec(const char *name, const char *value,
                    unsigned long max_count, unsigned long &index,
                    unsigned long &count);

// Strict wire-codec primitives behind the '|'-separated payload codecs
// (the journal's "ihres1", the serving ladder's "ihserve1") and the
// IH_FAULT_INJECT plan parser: a field parses only when the whole
// string is consumed.

/** Split @p s at every @p sep; empty fields are kept ("" -> {""}). */
std::vector<std::string> splitOn(const std::string &s, char sep);
/** Bare decimal digits only (no sign, no whitespace), no overflow. */
bool parseU64(const std::string &s, std::uint64_t &out);
/** A complete strtod number without over/underflow. */
bool parseF64(const std::string &s, double &out);
/** "%.17g": parseF64 reads it back bit-for-bit. */
std::string fmtDouble(double v);

/**
 * Write @p text to @p path atomically, fatal() on failure: the bytes
 * go to a same-directory temp file which is fsynced and then renamed
 * over @p path, so a reader (a resume, the CI perf gate) can
 * never observe a truncated report — it sees either the old complete
 * file or the new complete file.
 */
void writeTextFile(const std::string &path, const std::string &text);

/**
 * fatal() unless writeTextFile(@p path) could create its temp file.
 * The probe creates and removes that temp file, never @p path itself:
 * a run that dies after probing leaves no empty report behind.
 */
void probeWritable(const std::string &path);

/** Read the whole file at @p path, fatal() on failure. */
std::string readTextFile(const std::string &path);

/**
 * Extract the number stored under @p key at any nesting depth of
 * @p json (first *key position* wins: the quoted key preceded, modulo
 * whitespace, by '{' or ',' and followed by a single ':' and a number —
 * the key's text inside a string value or bound to a non-number never
 * matches). This is a deliberately small flat-scan — enough to read
 * back the reports JsonWriter produces (the perf-gate baseline), not a
 * general parser.
 * @return true and set @p out when the key was found with a number.
 */
bool jsonNumberField(const std::string &json, const std::string &key,
                     double &out);

/**
 * jsonNumberField's exact-integer sibling: extract the unsigned
 * integer under @p key without the 2^53 precision loss a double
 * round-trip would introduce (cycle counters are full uint64). The
 * value must be a bare decimal integer — a sign, fraction or exponent
 * never matches.
 */
bool jsonUnsignedField(const std::string &json, const std::string &key,
                       std::uint64_t &out);

/**
 * Extract (and unescape) the string bound to @p key under the same
 * key-position rules as jsonNumberField. Like its siblings this is a
 * read-back helper for reports JsonWriter produced, not a general
 * parser.
 */
bool jsonStringField(const std::string &json, const std::string &key,
                     std::string &out);

} // namespace ih

#endif // IH_HARNESS_REPORT_HH
