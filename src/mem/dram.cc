#include "mem/dram.hh"

namespace ih
{

Dram::Dram(std::string name, const SysConfig &cfg)
    : cfg_(cfg), openRow_(NUM_BANKS, -1), stats_(std::move(name)),
      statRowHits_(stats_.counter("row_hits")),
      statRowMisses_(stats_.counter("row_misses"))
{
}

unsigned
Dram::bankOf(Addr pa)
{
    return static_cast<unsigned>((pa / ROW_BYTES) % NUM_BANKS);
}

std::uint64_t
Dram::rowOf(Addr pa)
{
    return pa / (ROW_BYTES * NUM_BANKS);
}

Cycle
Dram::access(Addr pa)
{
    const unsigned bank = bankOf(pa);
    const auto row = static_cast<std::int64_t>(rowOf(pa));
    if (openRow_[bank] == row) {
        statRowHits_.inc();
        return cfg_.dramRowHitLatency;
    }
    statRowMisses_.inc();
    openRow_[bank] = row;
    return cfg_.dramLatency;
}

void
Dram::closeAllRows()
{
    for (auto &r : openRow_)
        r = -1;
    stats_.lazyCounter(statRowPurges_, "row_purges").inc();
}

} // namespace ih
