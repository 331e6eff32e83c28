#include "cpu/process.hh"

#include "crypto/sha256.hh"
#include "sim/log.hh"

namespace ih
{

Process::Process(ProcId id, std::string name, Domain domain,
                 unsigned threads, const SysConfig &cfg,
                 PhysAllocator &alloc)
    : id_(id), name_(std::move(name)), domain_(domain),
      requestedThreads_(threads), space_(cfg, alloc, id, domain),
      rng_(cfg.seed ^ (0x9e3779b9ULL * (id + 1))),
      stats_(strprintf("proc.%u", id))
{
    IH_ASSERT(threads > 0, "process needs at least one thread");
    // The measurement stands in for a hash of the enclave binary image:
    // hash the process name plus its requested resources.
    Sha256 h;
    h.update(name_.data(), name_.size());
    h.update(&requestedThreads_, sizeof(requestedThreads_));
    measurement_ = h.finish();
}

} // namespace ih
