#include "core/insecure.hh"

namespace ih
{

InsecureBaseline::InsecureBaseline(System &sys)
    : SecurityModel(sys, "insecure")
{
}

Cycle
InsecureBaseline::configure(const std::vector<Process *> &procs, Cycle t)
{
    assignWholeMachine(procs);
    for (Process *p : procs)
        p->space().setHomingMode(HomingMode::HASH_FOR_HOMING);
    sys_.mem().setRegionCheck(RegionCheck());
    return t;
}

Cycle
InsecureBaseline::enclaveEnter(Process &proc, Cycle t)
{
    // An ordinary context switch; the baseline charges nothing beyond
    // what the caches will pay naturally.
    enclaves_.of(proc.id()).enter(t, t);
    sys_.audit().record(AuditKind::ENCLAVE_ENTER, t, proc.id());
    return t;
}

Cycle
InsecureBaseline::enclaveExit(Process &proc, Cycle t)
{
    enclaves_.of(proc.id()).exit(t, t);
    sys_.audit().record(AuditKind::ENCLAVE_EXIT, t, proc.id());
    return t;
}

} // namespace ih
