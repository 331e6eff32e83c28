/**
 * @file
 * Per-tile core model. Cores are in-order, single-issue (1 IPC for
 * non-memory work) and block on memory operations; the heavy lifting of
 * timing lives in the memory system and the execution engine. The core
 * object tracks occupancy and retirement statistics.
 */

#ifndef IH_CPU_CORE_HH
#define IH_CPU_CORE_HH

#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** One in-order core. */
class Core
{
  public:
    explicit Core(CoreId id);

    /** Account retired instructions. */
    void retire(std::uint64_t instructions);

    /** Track the latest time this core has been observed busy. */
    void noteBusyUntil(Cycle t);

    CoreId id() const { return id_; }
    Cycle busyUntil() const { return busyUntil_; }
    std::uint64_t instructions() const
    {
        return stats_.value("instructions");
    }
    StatGroup &stats() { return stats_; }

  private:
    CoreId id_;
    Cycle busyUntil_ = 0;
    StatGroup stats_;
    // Bound once (StatGroup references are stable); retire() runs per
    // phase thread.
    Counter &statInstructions_;
};

} // namespace ih

#endif // IH_CPU_CORE_HH
