/**
 * @file
 * Lightweight statistics package: named scalar counters, ratio helpers
 * and geometric-mean aggregation. Components own a StatGroup
 * and register their counters there; the harness walks groups to print
 * per-run summaries.
 */

#ifndef IH_SIM_STATS_HH
#define IH_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ih
{

/** A named monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A registry of counters owned by one component. Counter references stay
 * valid for the life of the group (std::map nodes are stable).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Get-or-create a counter with @p name. */
    Counter &counter(const std::string &name);

    /**
     * counter(@p name), bound into @p slot by the first call so later
     * calls skip the lookup. For event counters (flushes, drains, ...)
     * that must stay out of the group until their event first fires:
     * binding them at construction would list a zero entry.
     */
    Counter &
    lazyCounter(Counter *&slot, const char *name)
    {
        if (!slot)
            slot = &counter(name);
        return *slot;
    }

    /** Value of a counter, zero when absent. */
    std::uint64_t value(const std::string &name) const;

    /** Reset every counter in the group. */
    void resetAll();

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

/** Geometric mean of @p xs; returns 0 for an empty input. */
double geomean(const std::vector<double> &xs);

/** Ratio helper returning 0 when the denominator is 0. */
double safeDiv(double num, double den);

} // namespace ih

#endif // IH_SIM_STATS_HH
