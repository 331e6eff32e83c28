/**
 * @file
 * The security-architecture abstraction.
 *
 * A SecurityModel decides (1) where processes run (core assignment and
 * cluster confinement), (2) how shared state is partitioned (L2 slices,
 * DRAM regions, memory controllers, homing policy), and (3) what happens
 * at every secure-process entry and exit (purges, constant costs,
 * nothing). The interaction loop (AppInstance::interact) calls
 * enclaveEnter/Exit around every consume phase and reads the
 * accumulated overheads back for the completion-time breakdowns. The
 * entry/exit protocol itself is the base class's; an architecture
 * supplies only the cost of one transition (transition()).
 *
 * Four architectures are provided:
 *  - InsecureBaseline: no protection, the normalization baseline.
 *  - SgxLike:          Intel-SGX-style enclaves: the insecure baseline
 *                      plus a constant 5 us per entry/exit.
 *  - MulticoreMi6:     SGX execution model + strong isolation: static
 *                      L2/DRAM partitioning, full purge of private state
 *                      and MC queues at *every* entry/exit.
 *  - Ironhide:         spatial secure/insecure clusters, pinned secure
 *                      processes, no per-interaction purging, dynamic
 *                      (once-per-invocation) reconfiguration.
 */

#ifndef IH_CORE_SECURITY_MODEL_HH
#define IH_CORE_SECURITY_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "core/purge_engine.hh"
#include "core/system.hh"

namespace ih
{

/** Architecture selector for the factory. */
enum class ArchKind : std::uint8_t
{
    INSECURE = 0,
    SGX_LIKE,
    MI6,
    IRONHIDE,
};

/** Printable architecture name. */
const char *archName(ArchKind k);

/** Base class of all security architectures. */
class SecurityModel
{
  public:
    SecurityModel(System &sys, std::string name);
    virtual ~SecurityModel() = default;

    /**
     * Admit and place @p procs (attestation, partitioning, core
     * assignment) starting at time @p t.
     * @return the time when setup completes.
     */
    virtual Cycle configure(const std::vector<Process *> &procs,
                            Cycle t) = 0;

    /**
     * Secure-process entry protocol starting at @p t: charges the
     * architecture's transition() and returns the post-entry time.
     * Entering while a process is inside panics.
     */
    Cycle enclaveEnter(Process &proc, Cycle t);

    /** Exit protocol of @p proc, which must be the process inside;
     *  returns the post-exit time. */
    Cycle enclaveExit(Process &proc, Cycle t);

    /**
     * Dynamic hardware isolation (IRONHIDE only): rebind the cluster
     * split to @p secure_cores. Default: unsupported no-op.
     */
    virtual Cycle
    reconfigure(unsigned secure_cores, Cycle t)
    {
        (void)secure_cores;
        return t;
    }

    /**
     * True for architectures that pin processes to spatially isolated
     * clusters (and therefore support cluster reconfiguration). All
     * models co-run the producer and consumer; only spatial models own
     * disjoint partitions of every resource class.
     */
    virtual bool spatial() const { return false; }

    /**
     * True for architectures whose entry/exit protocol suspends the
     * insecure side while a secure process runs (MI6's purge-bracketed
     * time sharing). Attack scenarios use this to decide whether an
     * attacker may probe *concurrently* with the victim or only before
     * entry / after exit.
     */
    virtual bool exclusiveSecureExecution() const { return false; }

    /** Cores currently assigned to the secure side (0 = time-shared). */
    virtual unsigned secureCoreCount() const { return 0; }

    const std::string &name() const { return name_; }
    System &system() { return sys_; }

    /** Cycles spent in purges (critical path). */
    Cycle purgeOverhead() const { return purge_.purgeCycles(); }

    /** Cycles spent in enclave transitions (includes purges and
     *  constant entry/exit costs). */
    Cycle transitionOverhead() const { return transitionOverhead_; }

    /** Total enclave entry+exit events. */
    std::uint64_t transitions() const { return transitions_; }

    /** One-time setup/reconfiguration overhead (IRONHIDE). */
    Cycle reconfigOverhead() const { return reconfigOverhead_; }

  protected:
    /**
     * The architecture's part of one enclave entry or exit starting at
     * @p t; returns when it completes. Default: free.
     */
    virtual Cycle transition(Cycle t) { return t; }

    /** Give every process every core with machine-wide scope. */
    void assignWholeMachine(const std::vector<Process *> &procs);

    /** All tile ids, built once: MI6 purges them on every transition. */
    const std::vector<CoreId> &allTiles() const { return allTiles_; }

    /** All controller ids, built once. */
    const std::vector<McId> &allMcs() const { return allMcs_; }

    System &sys_;
    std::string name_;
    const std::vector<CoreId> allTiles_;
    const std::vector<McId> allMcs_;
    PurgeEngine purge_;
    Cycle reconfigOverhead_ = 0;

  private:
    /** Charge one transition of @p proc at @p t and audit it. */
    Cycle charge(AuditKind kind, const Process &proc, Cycle t);

    ProcId inside_ = INVALID_PROC; ///< the entered process, if any
    std::uint64_t transitions_ = 0;
    Cycle transitionOverhead_ = 0;
};

/** Construct the architecture @p kind over @p sys. */
std::unique_ptr<SecurityModel> createModel(ArchKind kind, System &sys);

} // namespace ih

#endif // IH_CORE_SECURITY_MODEL_HH
