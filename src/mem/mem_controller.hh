/**
 * @file
 * Variable-latency memory controller with a request-queue contention
 * model and purge (drain) support.
 *
 * Requests reserve the controller's issue slot (next-free-time model); a
 * burst of requests therefore queues and observes growing latency, which
 * is exactly the shared-buffer state a microarchitecture-state attack
 * can observe. drain() models the MI6/IRONHIDE purge of these
 * queues/buffers (tmc_mem_fence_node on the prototype): pending writes
 * are pushed to DRAM, row buffers close, and the caller is charged the
 * drain latency.
 */

#ifndef IH_MEM_MEM_CONTROLLER_HH
#define IH_MEM_MEM_CONTROLLER_HH

#include "mem/dram.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** One memory controller and its DRAM channel. */
class MemController
{
  public:
    MemController(McId id, const SysConfig &cfg);

    /**
     * Service a read at @p pa requested at time @p when.
     * @return the completion time (queueing + device latency).
     */
    Cycle serviceRead(Addr pa, Cycle when);

    /**
     * Accept a writeback of line @p pa at time @p when. Writebacks are
     * buffered (not on any critical path) but consume an issue slot and
     * occupy the write queue until the next drain.
     */
    void acceptWrite(Addr pa, Cycle when);

    /**
     * Purge all controller queues/buffers at @p when.
     * @return the time at which the drain completes.
     */
    Cycle drain(Cycle when);

    /** Writes buffered since the last drain. */
    std::uint64_t pendingWrites() const { return pendingWrites_; }

    McId id() const { return id_; }
    Dram &dram() { return dram_; }
    StatGroup &stats() { return stats_; }

  private:
    /** Reserve the next issue slot at or after @p when. */
    Cycle reserveSlot(Cycle when);

    McId id_;
    const SysConfig &cfg_;
    Dram dram_;
    Cycle nextFree_ = 0;
    std::uint64_t pendingWrites_ = 0;
    StatGroup stats_;
    // Per-request counters bound once (StatGroup references are stable).
    Counter &statReads_;
    Counter &statWrites_;
    Counter &statQueueWaitCycles_;
    // Drain counters bind on the first drain: a controller never
    // drained lists no drain entries.
    Counter *statDrains_ = nullptr;
    Counter *statDrainedWrites_ = nullptr;
};

} // namespace ih

#endif // IH_MEM_MEM_CONTROLLER_HH
