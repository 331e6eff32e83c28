/**
 * @file
 * The trusted secure kernel (the analogue of MI6's security monitor).
 *
 * The kernel is the only software trusted by the architecture. It
 * attests secure processes before they may enter the secure cluster or
 * an enclave: the process carries a SHA-256 measurement of its image and
 * a vendor signature (HMAC-SHA-256 under the vendor key); the kernel
 * recomputes and verifies both. Attestation is all it does here: under
 * IRONHIDE the split decision is decideSplit()'s (src/harness) and the
 * cluster reconfiguration is Ironhide::reconfigure()'s.
 */

#ifndef IH_CORE_SECURE_KERNEL_HH
#define IH_CORE_SECURE_KERNEL_HH

#include <array>

#include "core/system.hh"
#include "cpu/process.hh"
#include "crypto/sha256.hh"

namespace ih
{

/** Trusted kernel: secure-process attestation. */
class SecureKernel
{
  public:
    using Key = std::array<std::uint8_t, 32>;

    SecureKernel(System &sys, const Key &vendor_key);

    /**
     * Vendor-side provisioning: sign @p proc's measurement with the
     * vendor key. (In a real deployment this happens off-line; tests use
     * it to construct both honest and tampered processes.)
     */
    void provision(Process &proc) const;

    /**
     * Attest @p proc at time @p t: recompute the measurement MAC and
     * compare against the carried signature.
     * @return the post-attestation time on success; records ATTEST_FAIL
     *         and returns @p t unchanged on failure (caller must refuse
     *         admission).
     */
    bool attest(Process &proc, Cycle &t);

    /** Number of successful attestations performed. */
    std::uint64_t attestedCount() const { return attested_; }

    /** Compute the signature of a measurement under @p key. */
    static std::array<std::uint8_t, 32>
    sign(const std::array<std::uint8_t, 32> &measurement, const Key &key);

  private:
    System &sys_;
    Key vendorKey_;
    std::uint64_t attested_ = 0;
};

} // namespace ih

#endif // IH_CORE_SECURE_KERNEL_HH
