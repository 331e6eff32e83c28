/**
 * @file
 * Multicore MI6: the state-of-the-art strong-isolation baseline.
 *
 * The SGX execution model is extended with strong isolation exactly as
 * the paper models it on the 64-tile machine:
 *
 *  - L2 slices and DRAM regions are statically split between the secure
 *    and insecure domains; the local-homing policy confines each
 *    process's pages to its own slice partition and L2 replication is
 *    off (one process per slice).
 *  - Cores, private L1s and TLBs remain *time-shared*, so every secure
 *    enclave entry and exit purges all of them (the dummy-buffer
 *    flush-and-invalidate of the prototype) and drains every memory
 *    controller's queues/buffers (variable-latency controllers).
 *  - A hardware check blocks insecure accesses homed in secure DRAM
 *    regions, defusing speculative-state attack pairings.
 *  - The secure kernel (MI6's security monitor) attests secure
 *    processes before admission.
 */

#ifndef IH_CORE_MI6_HH
#define IH_CORE_MI6_HH

#include "core/access_check.hh"
#include "core/secure_kernel.hh"
#include "core/security_model.hh"

namespace ih
{

/** Multicore MI6 strong-isolation baseline. */
class MulticoreMi6 : public SecurityModel
{
  public:
    explicit MulticoreMi6(System &sys);

    Cycle configure(const std::vector<Process *> &procs, Cycle t) override;

    /** The full entry/exit purge makes secure execution exclusive: no
     *  insecure observer runs concurrently with the enclave. */
    bool exclusiveSecureExecution() const override { return true; }

    const RegionOwnership &regions() const { return regions_; }

    /** Default vendor key used to provision honest secure processes. */
    static SecureKernel::Key defaultVendorKey();

  protected:
    /** Every entry and exit purges all private state and drains every
     *  controller. */
    Cycle transition(Cycle t) override;

  private:
    SecureKernel kernel_;
    RegionOwnership regions_;
};

} // namespace ih

#endif // IH_CORE_MI6_HH
