/**
 * @file
 * The untrusted OS service process (insecure side of the OS-level
 * interactive applications).
 *
 * Secure servers (MEMCACHED, LIGHTTPD) continuously need OS services —
 * fread, fcntl, close, writev — which under an enclave model means an
 * OCALL (enclave exit) per batch. The OS process services the pending
 * syscall batch through the shared IPC buffer (reading arguments,
 * touching kernel buffers, writing return values) and delivers the next
 * batch of client requests (it stands in for the NIC/loopback through
 * which memtier / http_load traffic arrives).
 */

#ifndef IH_WORKLOADS_OS_SERVICE_HH
#define IH_WORKLOADS_OS_SERVICE_HH

#include "workloads/workload.hh"

namespace ih
{

/** One request delivered to a secure server. */
struct ClientRequest
{
    std::uint64_t key;      ///< KV key or page id
    std::uint32_t kind;     ///< 0 = GET/fetch, 1 = SET
    std::uint32_t size;     ///< payload size hint
};

/** One syscall issued by a secure server. */
struct SyscallRecord
{
    std::uint32_t number;   ///< fread / fcntl / close / writev
    std::uint32_t bytes;
    std::uint64_t arg;
};

/** OS-level interaction sizing. */
struct OsAppParams
{
    unsigned requestsPerInteraction = 4;
    unsigned syscallsPerInteraction = 4;
    std::uint64_t keySpace = 65536;
    double zipfTheta = 0.9;
    unsigned kernelBufLines = 12; ///< kernel state touched per syscall

    OsAppParams
    scaled(double s) const
    {
        OsAppParams p = *this;
        p.keySpace = std::max<std::uint64_t>(
            1024, static_cast<std::uint64_t>(keySpace * s));
        return p;
    }
};

/** Untrusted OS process. */
class OsServiceWorkload : public InteractiveWorkload
{
  public:
    explicit OsServiceWorkload(const OsAppParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

    SimArray<ClientRequest> &requests() { return requests_; }
    SimArray<SyscallRecord> &syscalls() { return syscalls_; }
    SimArray<std::uint64_t> &sysRets() { return sysRets_; }

    const OsAppParams &params() const { return p_; }

  private:
    OsAppParams p_;
    ZipfSampler zipf_;
    SimRegion<std::uint64_t> kernelState_; ///< fd table / page cache tags
    SimArray<ClientRequest> requests_;    ///< IPC: OS -> server
    SimArray<SyscallRecord> syscalls_;    ///< IPC: server -> OS
    SimArray<std::uint64_t> sysRets_;     ///< IPC: OS -> server
    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> limit_;
    std::uint64_t interaction_ = 0;
};

} // namespace ih

#endif // IH_WORKLOADS_OS_SERVICE_HH
