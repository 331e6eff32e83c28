#include "cpu/core.hh"

namespace ih
{

Core::Core(CoreId id)
    : id_(id), stats_(strprintf("core.%u", id)),
      statInstructions_(stats_.counter("instructions"))
{
}

void
Core::retire(std::uint64_t instructions)
{
    statInstructions_.inc(instructions);
}

void
Core::noteBusyUntil(Cycle t)
{
    if (t > busyUntil_)
        busyUntil_ = t;
}

} // namespace ih
