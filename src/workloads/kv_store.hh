/**
 * @file
 * MEMCACHED-style secure key-value server.
 *
 * A real open-addressing hash table (linear probing, FNV-1a hashing)
 * serves GET/SET requests delivered by the OS process; every table probe
 * and value access is simulated. After processing the request batch the
 * server emits its syscall batch (writev of responses, fcntl on the
 * connection) to the OS through the IPC buffer — the high-interactivity
 * HotCalls regime of the paper's OS-level evaluation.
 */

#ifndef IH_WORKLOADS_KV_STORE_HH
#define IH_WORKLOADS_KV_STORE_HH

#include "workloads/os_service.hh"

namespace ih
{

/** Secure memcached-like server. */
class KvStoreWorkload : public InteractiveWorkload
{
  public:
    /**
     * @param os        the OS-side workload (owns the IPC streams)
     * @param capacity  hash-table slot count (power of two)
     */
    KvStoreWorkload(OsServiceWorkload &os, std::size_t capacity);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

  private:
    /** FNV-1a 64-bit hash. */
    static std::uint64_t hashKey(std::uint64_t key);

    OsServiceWorkload &os_;
    std::size_t capacity_;
    SimArray<std::uint64_t> slots_;   ///< key per slot (0 = empty)
    SimArray<std::uint64_t> values_;  ///< 64-byte values (8 words each)
    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> limit_;
};

} // namespace ih

#endif // IH_WORKLOADS_KV_STORE_HH
