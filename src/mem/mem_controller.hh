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

/**
 * How a controller shared by both domains keeps them from interfering.
 * Footnote 1 of the paper: instead of statically partitioning the
 * *controllers* between the clusters, the memory *bandwidth* of each
 * controller can be statically reserved per domain. TDM_RESERVATION
 * models that alternative: issue slots alternate between the domains on
 * a fixed time-division schedule, so neither domain's queue occupancy
 * is observable by the other — at the cost of idle slots.
 */
enum class McIsolationMode : std::uint8_t
{
    NONE = 0,        ///< shared slots (queues observable; needs purging)
    TDM_RESERVATION, ///< fixed per-domain time-division slot schedule
};

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
     * Service a read with domain-aware slot scheduling (used when the
     * TDM reservation mode is active; identical to serviceRead() in
     * NONE mode).
     */
    Cycle serviceRead(Addr pa, Cycle when, Domain domain);

    /** Select the isolation mode of this controller. */
    void setIsolationMode(McIsolationMode mode) { mode_ = mode; }

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

    /**
     * Reserve the next slot belonging to @p domain under the TDM
     * schedule: even-numbered service windows serve INSECURE,
     * odd-numbered windows serve SECURE, regardless of load.
     */
    Cycle reserveTdmSlot(Cycle when, Domain domain);

    McId id_;
    const SysConfig &cfg_;
    Dram dram_;
    McIsolationMode mode_ = McIsolationMode::NONE;
    Cycle nextFree_ = 0;
    Cycle domainNextFree_[NUM_DOMAINS] = {0, 0};
    std::uint64_t pendingWrites_ = 0;
    StatGroup stats_;
    // Per-request counters bound once (StatGroup references are stable).
    Counter &statReads_;
    Counter &statWrites_;
    Counter &statQueueWaitCycles_;
    Counter &statTdmSlots_;
    // Drain counters bind on the first drain: a controller never
    // drained lists no drain entries.
    Counter *statDrains_ = nullptr;
    Counter *statDrainedWrites_ = nullptr;
};

} // namespace ih

#endif // IH_MEM_MEM_CONTROLLER_HH
