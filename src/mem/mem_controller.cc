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
      statQueueWaitCycles_(stats_.counter("queue_wait_cycles")),
      statTdmSlots_(stats_.counter("tdm_slots"))
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
MemController::reserveTdmSlot(Cycle when, Domain domain)
{
    // The schedule divides time into windows of one service interval;
    // window parity selects the domain. A request waits for its own
    // domain's next free window — the other domain's traffic can
    // neither delay it nor be observed through it.
    const Cycle window = cfg_.mcServiceInterval;
    const unsigned parity = domain == Domain::SECURE ? 1u : 0u;
    Cycle t = std::max(when, domainNextFree_[domainIndex(domain)]);
    // Align to the next window of our parity.
    const Cycle idx = t / window;
    Cycle slot_idx = idx;
    if (slot_idx % 2 != parity)
        ++slot_idx;
    Cycle start = slot_idx * window;
    if (start < t)
        start += 2 * window;
    if (start > when)
        statQueueWaitCycles_.inc(start - when);
    // The domain's next request waits for the following own-window.
    domainNextFree_[domainIndex(domain)] = start + 2 * window;
    statTdmSlots_.inc();
    return start;
}

Cycle
MemController::serviceRead(Addr pa, Cycle when)
{
    statReads_.inc();
    const Cycle start = reserveSlot(when);
    return start + dram_.access(pa);
}

Cycle
MemController::serviceRead(Addr pa, Cycle when, Domain domain)
{
    if (mode_ == McIsolationMode::NONE)
        return serviceRead(pa, when);
    statReads_.inc();
    const Cycle start = reserveTdmSlot(when, domain);
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
