#include "core/sgx_like.hh"

namespace ih
{

SgxLike::SgxLike(System &sys) : SecurityModel(sys, "sgx")
{
}

Cycle
SgxLike::configure(const std::vector<Process *> &procs, Cycle t)
{
    assignWholeMachine(procs);
    for (Process *p : procs)
        p->space().setHomingMode(HomingMode::HASH_FOR_HOMING);
    sys_.mem().setRegionCheck(RegionCheck());
    return t;
}

Cycle
SgxLike::enclaveEnter(Process &proc, Cycle t)
{
    // Constant ECALL cost: pipeline flush + crypto + integrity checks.
    const Cycle done = t + sys_.config().sgxEnterExitCycles;
    enclaves_.of(proc.id()).enter(t, done);
    sys_.audit().record(AuditKind::ENCLAVE_ENTER, done, proc.id());
    return done;
}

Cycle
SgxLike::enclaveExit(Process &proc, Cycle t)
{
    const Cycle done = t + sys_.config().sgxEnterExitCycles;
    enclaves_.of(proc.id()).exit(t, done);
    sys_.audit().record(AuditKind::ENCLAVE_EXIT, done, proc.id());
    return done;
}

} // namespace ih
