/**
 * @file
 * Software processes as seen by the scheduler and the secure kernel.
 *
 * A Process owns an address space, a requested thread count, and (once a
 * security model has admitted and placed it) a set of assigned cores and
 * the cluster range its traffic is confined to. Secure processes carry a
 * SHA-256 measurement and a keyed signature that the secure kernel
 * verifies at admission (attestation).
 */

#ifndef IH_CPU_PROCESS_HH
#define IH_CPU_PROCESS_HH

#include <array>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "noc/routing.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** One simulated process. */
class Process
{
  public:
    /**
     * @param id       unique process id
     * @param name     human-readable ("SSSP", "GRAPH", "OS", ...)
     * @param domain   SECURE or INSECURE
     * @param threads  requested software thread count (parallelism cap)
     * @param cfg      machine configuration
     * @param alloc    physical page allocator (machine-wide)
     */
    Process(ProcId id, std::string name, Domain domain, unsigned threads,
            const SysConfig &cfg, PhysAllocator &alloc);

    ProcId id() const { return id_; }
    const std::string &name() const { return name_; }
    Domain domain() const { return domain_; }
    unsigned requestedThreads() const { return requestedThreads_; }

    AddressSpace &space() { return space_; }
    const AddressSpace &space() const { return space_; }

    /** Cores this process may run on (set by the security model). */
    const std::vector<CoreId> &cores() const { return cores_; }
    void setCores(std::vector<CoreId> cores) { cores_ = std::move(cores); }

    /** Cluster range confining this process's network traffic. */
    const ClusterRange &cluster() const { return cluster_; }
    void setCluster(const ClusterRange &c) { cluster_ = c; }

    /** Code/configuration measurement (SHA-256 of the binary image). */
    const std::array<std::uint8_t, 32> &measurement() const
    {
        return measurement_;
    }

    /** Signature over the measurement (HMAC by the vendor key). */
    const std::array<std::uint8_t, 32> &signature() const
    {
        return signature_;
    }
    void setSignature(const std::array<std::uint8_t, 32> &sig)
    {
        signature_ = sig;
    }

    Rng &rng() { return rng_; }
    StatGroup &stats() { return stats_; }

  private:
    ProcId id_;
    std::string name_;
    Domain domain_;
    unsigned requestedThreads_;
    AddressSpace space_;
    std::vector<CoreId> cores_;
    ClusterRange cluster_;
    std::array<std::uint8_t, 32> measurement_;
    std::array<std::uint8_t, 32> signature_{};
    Rng rng_;
    StatGroup stats_;
};

} // namespace ih

#endif // IH_CPU_PROCESS_HH
