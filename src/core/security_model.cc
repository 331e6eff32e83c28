#include "core/security_model.hh"

#include "core/insecure.hh"
#include "core/ironhide.hh"
#include "core/mi6.hh"
#include "core/sgx_like.hh"
#include "sim/log.hh"

namespace ih
{

const char *
archName(ArchKind k)
{
    switch (k) {
      case ArchKind::INSECURE: return "insecure";
      case ArchKind::SGX_LIKE: return "sgx";
      case ArchKind::MI6: return "mi6";
      case ArchKind::IRONHIDE: return "ironhide";
    }
    return "unknown";
}

namespace
{

/** Controller ids 0 .. @p n - 1. */
std::vector<McId>
mcIds(unsigned n)
{
    std::vector<McId> out;
    for (McId m = 0; m < n; ++m)
        out.push_back(m);
    return out;
}

} // namespace

SecurityModel::SecurityModel(System &sys, std::string name)
    : sys_(sys), name_(std::move(name)),
      allTiles_(sys.prefixTiles(sys.numTiles())),
      allMcs_(mcIds(sys.mem().numMcs())), purge_(sys)
{
}

Cycle
SecurityModel::enclaveEnter(Process &proc, Cycle t)
{
    IH_ASSERT(inside_ == INVALID_PROC, "double enclave entry");
    inside_ = proc.id();
    return charge(AuditKind::ENCLAVE_ENTER, proc, t);
}

Cycle
SecurityModel::enclaveExit(Process &proc, Cycle t)
{
    IH_ASSERT(inside_ == proc.id(), "enclave exit without entry");
    inside_ = INVALID_PROC;
    return charge(AuditKind::ENCLAVE_EXIT, proc, t);
}

Cycle
SecurityModel::charge(AuditKind kind, const Process &proc, Cycle t)
{
    const Cycle done = transition(t);
    ++transitions_;
    transitionOverhead_ += done - t;
    sys_.audit().record(kind, done, proc.id());
    return done;
}

void
SecurityModel::assignWholeMachine(const std::vector<Process *> &procs)
{
    // Co-running processes spread over disjoint core sets (the OS
    // scheduler balances them across the machine), but every process has
    // machine-wide scope: caches, TLBs, network and controllers are
    // architecturally shared — nothing is partitioned or confined.
    const ClusterRange whole{0, sys_.numTiles()};
    const unsigned half = sys_.numTiles() / 2;
    for (Process *p : procs) {
        if (p->domain() == Domain::SECURE)
            p->setCores(sys_.prefixTiles(half));
        else
            p->setCores(sys_.suffixTiles(half));
        p->setCluster(whole);
    }
}

std::unique_ptr<SecurityModel>
createModel(ArchKind kind, System &sys)
{
    switch (kind) {
      case ArchKind::INSECURE:
        return std::make_unique<InsecureBaseline>(sys);
      case ArchKind::SGX_LIKE:
        return std::make_unique<SgxLike>(sys);
      case ArchKind::MI6:
        return std::make_unique<MulticoreMi6>(sys);
      case ArchKind::IRONHIDE:
        return std::make_unique<Ironhide>(sys);
    }
    panic("unknown architecture kind");
}

} // namespace ih
