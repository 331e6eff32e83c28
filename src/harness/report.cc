#include "harness/report.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>

#include <unistd.h>

#include "sim/log.hh"

namespace ih
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    IH_ASSERT(cells.size() == headers_.size(),
              "row width %zu != header width %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::addSeparator()
{
    rows_.push_back({});
}

std::string
Table::toString() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string out;
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += "  ";
            // Right-align numbers, left-align the first column.
            const std::string &cell = row[c];
            const std::size_t pad = width[c] - cell.size();
            if (c == 0) {
                out += cell + std::string(pad, ' ');
            } else {
                out += std::string(pad, ' ') + cell;
            }
        }
        out += "\n";
        return out;
    };

    std::string out = render_row(headers_);
    std::size_t total = 2;
    for (auto w : width)
        total += w + 2;
    out += std::string(total, '-') + "\n";
    for (const auto &row : rows_) {
        if (row.empty())
            out += std::string(total, '-') + "\n";
        else
            out += render_row(row);
    }
    return out;
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
}

std::string
Table::num(double v, int precision)
{
    return strprintf("%.*f", precision, v);
}

std::string
Table::pct(double v, int precision)
{
    return strprintf("%.*f%%", precision, v * 100.0);
}

void
printBanner(const std::string &experiment_id,
            const std::string &description)
{
    std::printf("\n=== %s ===\n%s\n\n", experiment_id.c_str(),
                description.c_str());
}

void
JsonWriter::preValue()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!hasElem_.empty()) {
        if (hasElem_.back())
            out_ += ',';
        hasElem_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    out_ += '{';
    hasElem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    IH_ASSERT(!hasElem_.empty() && !afterKey_,
              "unbalanced endObject in JSON writer");
    hasElem_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    out_ += '[';
    hasElem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    IH_ASSERT(!hasElem_.empty() && !afterKey_,
              "unbalanced endArray in JSON writer");
    hasElem_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    IH_ASSERT(!afterKey_, "JSON key '%s' follows another key", k.c_str());
    preValue();
    out_ += '"' + escape(k) + "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    out_ += '"' + escape(v) + '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    // %.17g round-trips doubles; trim the common integral case.
    out_ += strprintf("%.17g", v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    preValue();
    out_ += strprintf("%llu", static_cast<unsigned long long>(v));
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    out_ += v ? "true" : "false";
    return *this;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                out += strprintf("\\u%04x", ch);
            else
                out += ch;
        }
    }
    return out;
}

double
parsePositiveDouble(const char *name, const char *value, double fallback)
{
    if (!value || !*value)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    // Reject partial parses ("0.15abc"), overflow/underflow (ERANGE),
    // non-finite spellings ("inf", "nan") and non-positive numbers —
    // all of which std::atof would have handed back unflagged.
    if (end == value || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v <= 0.0) {
        warn("ignoring invalid %s='%s'", name, value);
        return fallback;
    }
    return v;
}

namespace
{

struct KnobRow
{
    const char *name;
    unsigned long min, max; ///< count knobs only
    double def;             ///< count and real knobs only
};

// The knob registry: one row per knob, in Knob order (the row order of
// README.md's knob table). scripts/ih_lint.py reads these rows, one per
// line, and checks them against that table.
constexpr KnobRow kKnobs[] = {
    {"IRONHIDE_SCALE", 0, 0, 1.0},
    {"IRONHIDE_THREADS", 0, 4096, 0},
    {"IRONHIDE_ATTACK_TRIALS", 0, 4096, 24},
    {"IRONHIDE_MAX_LOAD_STEPS", 0, 64, 6},
    {"IRONHIDE_SERVE_SESSIONS", 1, 1000000, 48},
    {"IRONHIDE_SERVE_APPS", 0, 9, 9},
    {"IRONHIDE_SERVE_SEED", 0, 0xFFFFFFFF, 0xC0FFEE},
    {"IRONHIDE_SERVE_LAMBDA0", 0, 0, 0.0},
    {"IRONHIDE_MICRO_MS", 0, 0, 20.0},
    {"IH_DUMP_GOLDEN", 0, 0, 0},
};
static_assert(std::size(kKnobs) ==
                  static_cast<std::size_t>(Knob::DUMP_GOLDEN) + 1,
              "one registry row per Knob");

const KnobRow &
row(Knob k)
{
    return kKnobs[static_cast<std::size_t>(k)];
}

/** The tree's one getenv call. */
const char *
envValue(Knob k)
{
    return std::getenv(row(k).name);
}

} // namespace

unsigned long
knobCount(Knob k)
{
    const KnobRow &r = row(k);
    const char *value = envValue(k);
    if (!value || !*value)
        return static_cast<unsigned long>(r.def);
    char *end = nullptr;
    const unsigned long v = std::strtoul(value, &end, 10);
    // strtoul silently wraps negatives, so reject them explicitly,
    // along with partial parses ("4abc") and absurd magnitudes
    // (overflow lands on ULONG_MAX and fails the bound).
    if (value[0] == '-' || end == value || *end != '\0' || v < r.min ||
        v > r.max) {
        warn("ignoring invalid %s='%s'", r.name, value);
        return static_cast<unsigned long>(r.def);
    }
    return v;
}

unsigned
knobWorkers(Knob k)
{
    const unsigned long n = knobCount(k);
    const unsigned long hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(std::clamp(n ? n : hw, 1ul, row(k).max));
}

double
knobReal(Knob k)
{
    return parsePositiveDouble(row(k).name, envValue(k), row(k).def);
}

const char *
knobText(Knob k)
{
    const char *value = envValue(k);
    return value && *value ? value : nullptr;
}

namespace
{

/** The same-directory temp file writeTextFile renames over @p path. */
std::string
tempSibling(const std::string &path)
{
    return path + strprintf(".tmp.%ld", static_cast<long>(::getpid()));
}

} // namespace

void
writeTextFile(const std::string &path, const std::string &text)
{
    // Write-temp + fsync + rename: a crash (or kill) at any point
    // leaves either the previous complete file or the new complete
    // file at @p path, never a truncated hybrid. The temp file lives
    // in the same directory so the rename is atomic.
    const std::string tmp = tempSibling(path);
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        fatal("cannot open '%s' for writing", tmp.c_str());
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    if (written != text.size() || std::fflush(f) != 0) {
        std::fclose(f);
        std::remove(tmp.c_str());
        fatal("short write to '%s' (%zu of %zu bytes)", tmp.c_str(),
              written, text.size());
    }
    if (::fsync(::fileno(f)) != 0 || std::fclose(f) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot sync '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename '%s' to '%s'", tmp.c_str(), path.c_str());
    }
}

void
probeWritable(const std::string &path)
{
    const std::string tmp = tempSibling(path);
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());
    std::fclose(f);
    std::remove(tmp.c_str());
}

std::string
readTextFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open '%s' for reading", path.c_str());
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    if (std::ferror(f))
        fatal("read error on '%s'", path.c_str());
    std::fclose(f);
    return out;
}

} // namespace ih
