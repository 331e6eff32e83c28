/**
 * @file
 * SGX-like enclave model. Matches the paper's modelling of Intel SGX:
 * every enclave entry (ECALL) and exit (OCALL) pays a constant 5 us —
 * the HotCalls-measured cost of the pipeline flush plus data
 * encryption/decryption and memory-integrity verification — but shared
 * caches, TLBs, DRAM and memory controllers stay temporally shared and
 * unpartitioned exactly as in the insecure baseline, so the secure
 * process's microarchitectural footprint remains fully observable (no
 * strong isolation).
 */

#ifndef IH_CORE_SGX_LIKE_HH
#define IH_CORE_SGX_LIKE_HH

#include "core/insecure.hh"

namespace ih
{

/** Intel-SGX-style enclave execution model. */
class SgxLike : public InsecureBaseline
{
  public:
    explicit SgxLike(System &sys) : InsecureBaseline(sys, "sgx") {}

  protected:
    /** Constant ECALL/OCALL cost: pipeline flush + crypto + integrity
     *  checks. */
    Cycle
    transition(Cycle t) override
    {
        return t + sys_.config().sgxEnterExitCycles;
    }
};

} // namespace ih

#endif // IH_CORE_SGX_LIKE_HH
