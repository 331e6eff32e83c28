/**
 * @file
 * Execution-driven timing engine.
 *
 * Workloads are resumable state machines: step() performs one bounded
 * unit of work for one thread, issuing memory operations and compute
 * through an ExecContext. The engine keeps the runnable threads of a
 * phase in a min-heap ordered by local time and always advances the
 * globally earliest thread, so the next-free-time contention models in
 * the NoC and memory controllers see requests in (near) global time
 * order — the lax-synchronization scheme of Graphite-class simulators.
 *
 * A *phase* is the unit of orchestration: one process running one piece
 * of work (e.g. "produce batch i") on its assigned cores, starting at a
 * given time and completing when all its threads finish (implicit
 * barrier). The interactive-application layer sequences phases according
 * to the active security architecture (serialized for temporal models,
 * pipelined across clusters for IRONHIDE).
 */

#ifndef IH_CPU_EXEC_ENGINE_HH
#define IH_CPU_EXEC_ENGINE_HH

#include <vector>

#include "cpu/core.hh"
#include "cpu/process.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"

namespace ih
{

class ExecEngine;
class SteppableTask;

/** Per-thread view handed to workload step functions. */
class ExecContext
{
  public:
    ExecContext(ExecEngine &engine, Process &proc, unsigned thread_index,
                unsigned num_threads, CoreId core, Cycle now);

    /** Load from this process's address space. */
    void load(VAddr va) { access(proc_->space(), va, MemOp::LOAD); }

    /** Store to this process's address space. */
    void store(VAddr va) { access(proc_->space(), va, MemOp::STORE); }

    /**
     * Access an arbitrary address space (used for the shared IPC buffer,
     * which lives in the insecure owner's space). IPC traffic is routed
     * with whole-machine scope: it is the one packet class allowed to
     * cross the cluster boundary.
     */
    void accessShared(AddressSpace &space, VAddr va, MemOp op);

    /** Access this process's space (op selectable). */
    void access(AddressSpace &space, VAddr va, MemOp op);

    /** Charge @p n non-memory instructions (1 IPC). */
    void compute(std::uint64_t n);

    /**
     * Synchronize with the process's other threads (barrier / highly
     * contended atomic). Cost grows linearly with the active thread
     * count, modelling serialization on the contended line.
     */
    void sync();

    Cycle now() const { return now_; }
    unsigned threadIndex() const { return threadIndex_; }
    unsigned numThreads() const { return numThreads_; }
    CoreId core() const { return core_; }
    Process &process() { return *proc_; }
    Rng &rng();

  private:
    friend class ExecEngine;

    ExecEngine *engine_;
    Process *proc_;
    unsigned threadIndex_;
    unsigned numThreads_;
    CoreId core_;
    Cycle now_;
    std::uint64_t instructions_ = 0;
};

/** A resumable unit of parallel work. */
class SteppableTask
{
  public:
    virtual ~SteppableTask() = default;

    /**
     * Advance thread @p ctx by one bounded unit of work.
     * @return false when this thread has no more work in this phase.
     */
    virtual bool step(ExecContext &ctx) = 0;
};

/** Result of running one phase. */
struct PhaseResult
{
    Cycle finish = 0;           ///< barrier time (max over threads)
    std::uint64_t instructions = 0;
    std::uint64_t steps = 0;
};

/** The machine-wide execution engine. */
class ExecEngine
{
  public:
    ExecEngine(const SysConfig &cfg, MemorySystem &mem);

    /**
     * Run @p task for @p proc starting at @p start: one thread per
     * assigned core (up to the requested thread count), min-time-first.
     * @return completion info (all threads joined).
     */
    PhaseResult runPhase(Process &proc, SteppableTask &task, Cycle start);

    MemorySystem &mem() { return mem_; }
    const SysConfig &config() const { return cfg_; }
    Core &core(CoreId id) { return *cores_[id]; }
    StatGroup &stats() { return stats_; }

    /** Cost charged per participant by ExecContext::sync(). */
    static constexpr Cycle SYNC_BASE = 30;
    static constexpr Cycle SYNC_PER_THREAD = 18;

  private:
    friend class ExecContext;

    const SysConfig &cfg_;
    MemorySystem &mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    StatGroup stats_;
    // Per-access counters bound once (StatGroup references are stable).
    Counter &statIpcAccesses_;
    Counter &statSyncs_;
    Counter &statPhases_;
    /**
     * Scratch state reused across phases so runPhase() allocates nothing
     * per step *or per phase*: next-free time per core (flat, indexed by
     * CoreId), the backing store of the runnable min-heap, and the
     * pooled ExecContext arena (re-initialized in place each phase; its
     * capacity is the high-water thread count).
     */
    std::vector<Cycle> coreFree_;
    std::vector<std::pair<Cycle, unsigned>> heap_;
    std::vector<ExecContext> ctxPool_;
};

// ExecContext::access issues through the engine's MemorySystem, whose
// L1-hit fast path is itself header-inline — defining this here (after
// ExecEngine is complete) lets the common hit case run without a single
// out-of-line call.
inline void
ExecContext::access(AddressSpace &space, VAddr va, MemOp op)
{
    const AccessResult r = engine_->mem_.access(core_, space, va, op, now_,
                                                proc_->cluster());
    now_ = r.finish;
    ++instructions_;
}

} // namespace ih

#endif // IH_CPU_EXEC_ENGINE_HH
