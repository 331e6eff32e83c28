#include "mem/mem_controller.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

MemController::MemController(McId id, const SysConfig &cfg)
    : id_(id), cfg_(cfg), dram_(strprintf("dram.%u", id), cfg),
      stats_(strprintf("mc.%u", id)),
      statReads_(stats_.counter("reads")),
      statWrites_(stats_.counter("writes")),
      statQueueWaitCycles_(stats_.counter("queue_wait_cycles"))
{
}

Cycle
MemController::reserveSlot(Cycle when)
{
    const Cycle start = std::max(when, nextFree_);
    if (start > when)
        statQueueWaitCycles_.inc(start - when);
    nextFree_ = start + cfg_.mcServiceInterval;
    return start;
}

Cycle
MemController::serviceRead(Addr pa, Cycle when)
{
    statReads_.inc();
    const Cycle start = reserveSlot(when);
    return start + dram_.access(pa);
}

void
MemController::acceptWrite(Addr pa, Cycle when)
{
    statWrites_.inc();
    reserveSlot(when);
    (void)pa;
    ++pendingWrites_;
}

Cycle
MemController::drain(Cycle when)
{
    // Flush the write queue to DRAM and close every row buffer: the
    // drain occupies the controller for a base cost plus one service
    // interval per pending write.
    const Cycle cost = cfg_.mcDrainBase +
                       pendingWrites_ * cfg_.mcServiceInterval;
    stats_.lazyCounter(statDrains_, "drains").inc();
    stats_.lazyCounter(statDrainedWrites_, "drained_writes")
        .inc(pendingWrites_);
    pendingWrites_ = 0;
    dram_.closeAllRows();
    const Cycle done = std::max(when, nextFree_) + cost;
    nextFree_ = done;
    return done;
}

} // namespace ih
