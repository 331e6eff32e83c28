/**
 * @file
 * The IRONHIDE architecture: strong isolation via spatially isolated
 * secure and insecure clusters of cores.
 *
 * The machine is split into a secure cluster (a row-major prefix of the
 * tile space, adjacent to the top-edge memory controllers) and an
 * insecure cluster (the suffix, adjacent to the bottom-edge
 * controllers). Each cluster owns its tiles' cores, L1s, TLBs and L2
 * slices; DRAM regions and memory controllers are statically split so a
 * cluster's misses only ever travel to its own controllers; and the
 * bidirectional X-Y/Y-X routing keeps every intra-cluster packet inside
 * the cluster. Secure processes are attested by the secure kernel and
 * *pinned* to the secure cluster, where they interact with insecure
 * processes through the shared IPC buffer without any enclave
 * entry/exit purging.
 *
 * Dynamic hardware isolation re-balances the split once per interactive
 * application invocation: the system stalls, the private state of
 * re-allocated cores is flushed-and-invalidated, and pages homed on
 * moved L2 slices are re-homed (unmap / set-home / remap). The
 * reconfiguration count is bounded to keep the scheduling side channel
 * to a constant number of observable events.
 */

#ifndef IH_CORE_IRONHIDE_HH
#define IH_CORE_IRONHIDE_HH

#include "core/access_check.hh"
#include "core/secure_kernel.hh"
#include "core/security_model.hh"

namespace ih
{

/** The IRONHIDE secure multicore. */
class Ironhide : public SecurityModel
{
  public:
    explicit Ironhide(System &sys);

    Cycle configure(const std::vector<Process *> &procs, Cycle t) override;
    Cycle reconfigure(unsigned secure_cores, Cycle t) override;

    bool spatial() const override { return true; }
    unsigned secureCoreCount() const override { return secureCores_; }

    /** Cluster ranges (valid after configure()). */
    ClusterRange secureCluster() const;
    ClusterRange insecureCluster() const;

    /** Controllers owned by each cluster. */
    std::vector<McId> secureMcs() const;
    std::vector<McId> insecureMcs() const;

    /**
     * Application-level context switch of the secure cluster between
     * mutually *distrusting* secure processes (different interactive
     * applications): purges the secure cluster's private state and
     * drains its controllers. Within one application, mutually trusting
     * secure processes co-execute with no purge.
     */
    Cycle secureAppSwitch(Cycle t);

    /**
     * Relax/replace the once-per-invocation reconfiguration bound
     * (ablation use only; the default of 1 is part of the security
     * argument).
     */
    void setReconfigLimit(unsigned n) { reconfigLimit_ = n; }
    unsigned reconfigCount() const { return reconfigCount_; }

    /**
     * Override the initial cluster binding applied by configure()
     * (default: half the machine). Probe runs of the re-allocation
     * predictor use this to evaluate candidate splits directly.
     */
    void setInitialSplit(unsigned s) { initialSplit_ = s; }

    const RegionOwnership &regions() const { return regions_; }

  private:
    /** Apply the partition tables for a split of @p s secure tiles. */
    void applySplit(unsigned s);

    /** MCs whose attachment router lies in the given cluster. */
    std::vector<McId> mcsInCluster(const ClusterRange &range) const;

    SecureKernel kernel_;
    RegionOwnership regions_;
    std::vector<Process *> procs_;
    unsigned secureCores_ = 0;
    unsigned initialSplit_ = 0; ///< 0 = half the machine
    unsigned reconfigLimit_ = 1;
    unsigned reconfigCount_ = 0;
};

} // namespace ih

#endif // IH_CORE_IRONHIDE_HH
