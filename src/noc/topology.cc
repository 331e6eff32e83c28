#include "noc/topology.hh"

#include <cstdlib>

#include "sim/log.hh"

namespace ih
{

Topology::Topology(const SysConfig &cfg)
    : width_(cfg.meshWidth), height_(cfg.meshHeight)
{
    IH_ASSERT(width_ > 0 && height_ > 0, "empty mesh");
    const unsigned per_edge = cfg.numMcs / 2;
    IH_ASSERT(per_edge >= 1, "need at least one MC per edge");
    IH_ASSERT(per_edge <= width_, "more MCs per edge than columns");

    // Top-edge MCs at columns 0,1,...; bottom-edge MCs at W-1,W-2,...
    for (unsigned i = 0; i < per_edge; ++i)
        mcTiles_.push_back(tileAt({static_cast<int>(i), 0}));
    for (unsigned i = 0; i < per_edge; ++i)
        mcTiles_.push_back(tileAt({static_cast<int>(width_ - 1 - i),
                                   static_cast<int>(height_ - 1)}));
}

CoreId
Topology::mcAttachTile(McId mc) const
{
    IH_ASSERT(mc < mcTiles_.size(), "MC id %u out of range", mc);
    return mcTiles_[mc];
}

} // namespace ih
