#include "mem/page_table.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

PhysAllocator::PhysAllocator(const SysConfig &cfg)
    : pageBytes_(cfg.pageBytes), next_(cfg.numRegions, 0)
{
}

Addr
PhysAllocator::allocPage(RegionId region)
{
    IH_ASSERT(region < next_.size(), "region %u out of range", region);
    const std::uint64_t ordinal = next_[region]++;
    const Addr pa = static_cast<Addr>(region) * REGION_BYTES +
                    ordinal * pageBytes_;
    if ((ordinal + 1) * pageBytes_ > REGION_BYTES)
        fatal("DRAM region %u exhausted", region);
    return pa;
}

std::uint64_t
PhysAllocator::pagesUsed(RegionId region) const
{
    IH_ASSERT(region < next_.size(), "region %u out of range", region);
    return next_[region];
}

AddressSpace::AddressSpace(const SysConfig &cfg, PhysAllocator &alloc,
                           ProcId proc, Domain domain)
    : cfg_(cfg), alloc_(alloc), proc_(proc), domain_(domain),
      pageMask_(cfg.pageBytes - 1)
{
    pageShift_ = log2Pow2(cfg.pageBytes);
    // Default: everything is allowed until a security model says
    // otherwise (the insecure-baseline configuration).
    for (RegionId r = 0; r < cfg.numRegions; ++r)
        regions_.push_back(r);
    for (CoreId t = 0; t < cfg.numTiles(); ++t)
        slices_.push_back(t);
}

void
AddressSpace::setHomingMode(HomingMode mode)
{
    IH_ASSERT(mode == mode_ || pages_.empty(),
              "homing mode of process %u changed after it mapped a page",
              proc_);
    mode_ = mode;
}

void
AddressSpace::setAllowedRegions(std::vector<RegionId> regions)
{
    IH_ASSERT(!regions.empty(), "process needs at least one DRAM region");
    regions_ = std::move(regions);
}

void
AddressSpace::setAllowedSlices(std::vector<CoreId> slices)
{
    IH_ASSERT(!slices.empty(), "process needs at least one L2 slice");
    slices_ = std::move(slices);
}

const PageInfo &
AddressSpace::mapSlow(VAddr vp)
{
    auto it = pages_.find(vp);
    if (it == pages_.end()) {
        const RegionId region = regions_[pageSeq_ % regions_.size()];
        PageInfo info;
        info.ppage = alloc_.allocPage(region);
        info.homeSlice = Homing::localHome(pageSeq_, slices_);
        ++pageSeq_;
        it = pages_.emplace(vp, info).first;
    }
    tcache_[tcSlot(vp)] = TransCache{vp, &it->second};
    return it->second;
}

const PageInfo *
AddressSpace::translate(VAddr va) const
{
    auto it = pages_.find(vpageOf(va));
    return it == pages_.end() ? nullptr : &it->second;
}

CoreId
AddressSpace::homeOf(VAddr va)
{
    const PageInfo &info = ensureMapped(va);
    const Addr pa = info.ppage + (va & pageMask_);
    return lineHome(info, pa & ~static_cast<Addr>(cfg_.lineBytes - 1));
}

std::uint64_t
AddressSpace::rehomeAll(const std::vector<CoreId> &new_slices)
{
    IH_ASSERT(!new_slices.empty(), "rehome with no slices");
    // Pages whose home slice survives the re-allocation stay put (their
    // cached state remains useful); only pages homed on lost slices are
    // unmapped / re-homed / remapped.
    std::uint64_t moved = 0;
    std::uint64_t seq = 0;
    for (auto &[vp, info] : pages_) {
        const bool kept = std::find(new_slices.begin(), new_slices.end(),
                                    info.homeSlice) != new_slices.end();
        if (!kept) {
            info.homeSlice = Homing::localHome(seq, new_slices);
            ++moved;
        }
        ++seq;
    }
    slices_ = new_slices;
    return moved;
}

VAddr
AddressSpace::reserveRange(std::uint64_t bytes)
{
    // Align the break to a page and leave a guard page between ranges.
    const VAddr base = (brk_ + pageMask_) & ~pageMask_;
    brk_ = base + bytes + cfg_.pageBytes;
    return base;
}

} // namespace ih
