/**
 * @file
 * The secure AES-256 query-encryption service.
 *
 * Each interaction encrypts the pending query batch under a 256-bit key
 * in CTR mode, using the from-scratch T-table implementation. Every
 * T-table lookup the cipher performs is replayed into the timing model
 * at its real (key- and data-dependent) index — these are exactly the
 * accesses a Prime+Probe attacker targets, which is what makes this
 * workload a security benchmark and not just a throughput one.
 */

#ifndef IH_WORKLOADS_AES_SERVICE_HH
#define IH_WORKLOADS_AES_SERVICE_HH

#include "crypto/aes256.hh"
#include "workloads/query.hh"

namespace ih
{

/** Secure AES-256 encryption consumer. */
class AesServiceWorkload : public InteractiveWorkload
{
  public:
    explicit AesServiceWorkload(QueryGenWorkload &gen);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

  private:
    QueryGenWorkload &gen_;
    Aes256 cipher_;
    /** The T-tables as simulated memory: 4 tables x 256 words, then the
     *  256-byte final-round S-box. */
    SimArray<std::uint32_t> tables_;
    SimArray<std::uint8_t> sbox_;
    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> limit_;
    std::uint64_t interaction_ = 0;

    static Aes256::Key serviceKey();
};

} // namespace ih

#endif // IH_WORKLOADS_AES_SERVICE_HH
