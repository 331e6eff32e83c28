#include "core/insecure.hh"

namespace ih
{

InsecureBaseline::InsecureBaseline(System &sys)
    : InsecureBaseline(sys, "insecure")
{
}

InsecureBaseline::InsecureBaseline(System &sys, std::string name)
    : SecurityModel(sys, std::move(name))
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

} // namespace ih
