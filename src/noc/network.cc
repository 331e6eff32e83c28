#include "noc/network.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/log.hh"

namespace ih
{

Network::Network(const SysConfig &cfg, const Topology &topo)
    : cfg_(cfg), topo_(topo), router_(topo), tiles_(topo.numTiles()),
      strides_{4, -4, static_cast<std::ptrdiff_t>(topo.width()) * 4,
               -static_cast<std::ptrdiff_t>(topo.width()) * 4},
      link_free_(static_cast<std::size_t>(topo.numTiles()) * 4, 0),
      stats_("noc"),
      statPackets_(stats_.counter("packets")),
      statFlits_(stats_.counter("flits")),
      statIsolationViolations_(stats_.counter("isolation_violations")),
      statLinkStallCycles_(stats_.counter("link_stall_cycles")),
      statTotalLatency_(stats_.counter("total_latency"))
{
    // A segment's hop count must fit its 8-bit plan field.
    IH_ASSERT(std::max(topo.width(), topo.height()) <= 256,
              "mesh %ux%u too wide for a route plan entry", topo.width(),
              topo.height());
}

void
Network::resetLinkState()
{
    std::fill(link_free_.begin(), link_free_.end(), 0);
}

Network::Route
Network::deriveRoute(CoreId src, CoreId dst,
                     const ClusterRange &cluster) const
{
    // One straight segment: its hop count and the link each hop takes.
    struct Segment
    {
        unsigned hops;
        unsigned dir;
    };
    const Coord s = topo_.coordOf(src);
    const Coord e = topo_.coordOf(dst);
    const RouteOrder order = router_.selectOrder(src, cluster);
    const int dx = e.x - s.x;
    const int dy = e.y - s.y;
    const Segment along_x{static_cast<unsigned>(std::abs(dx)),
                          dx > 0 ? EAST : WEST};
    const Segment along_y{static_cast<unsigned>(std::abs(dy)),
                          dy > 0 ? SOUTH : NORTH};
    const bool xy = order == RouteOrder::XY;
    const Segment &first = xy ? along_x : along_y;
    const Segment &second = xy ? along_y : along_x;

    Route r{};
    r.hops0 = first.hops;
    r.dir0 = first.dir;
    r.hops1 = second.hops;
    r.dir1 = second.dir;
    r.leaves = !router_.orderedRouteContained(s, e, order, cluster);
    r.filled = 1;
    return r;
}

Network::Route *
Network::selectPlan(const ClusterRange &cluster)
{
    auto it = std::find_if(plans_.begin(), plans_.end(),
                           [&](const RoutePlan &p) {
                               return p.cluster.first == cluster.first &&
                                      p.cluster.count == cluster.count;
                           });
    if (it == plans_.end()) {
        plans_.push_back(RoutePlan{
            cluster, std::vector<Route>(static_cast<std::size_t>(tiles_) *
                                        tiles_)});
        it = plans_.end() - 1;
    }
    current_ = cluster;
    currentRoutes_ = it->routes.data();
    return currentRoutes_;
}

} // namespace ih
