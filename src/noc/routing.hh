/**
 * @file
 * Deterministic dimension-ordered routing on the 2-D mesh.
 *
 * The mesh supports bidirectional dimension-ordered routing: every packet
 * is routed either X-then-Y or Y-then-X, selected per packet by a
 * deterministic policy. Strong isolation of on-chip traffic relies on
 * this: with clusters allocated as a row-major prefix (secure) / suffix
 * (insecure) of the tile space, choosing Y-X for packets *sourced in the
 * cluster's boundary (partially owned) row* and X-Y otherwise guarantees
 * every intra-cluster route stays on routers owned by that cluster
 * (IRONHIDE paper, Section III-B2). path() is the reference walk of a
 * route and pathContained() checks the guarantee on it; the network's
 * per-packet check is the O(1) orderedRouteContained().
 */

#ifndef IH_NOC_ROUTING_HH
#define IH_NOC_ROUTING_HH

#include <algorithm>
#include <vector>

#include "noc/topology.hh"

namespace ih
{

/** Dimension order used by a packet. */
enum class RouteOrder : std::uint8_t
{
    XY = 0, ///< traverse X first, then Y
    YX = 1, ///< traverse Y first, then X
};

/**
 * A contiguous row-major range of tiles forming a cluster.
 * Tiles [first, first+count) belong to the cluster.
 */
struct ClusterRange
{
    CoreId first = 0;
    unsigned count = 0;

    bool
    contains(CoreId t) const
    {
        return t >= first && t < first + count;
    }

    CoreId last() const { return first + count - 1; }
};

/** Stateless routing policy over a topology. */
class Router
{
  public:
    explicit Router(const Topology &topo) : topo_(topo) {}

    /**
     * Enumerate the routers a packet visits from @p src to @p dst
     * (inclusive of both endpoints) under @p order.
     *
     * The reference walk of a route. The simulation's only walk is
     * Network::walkLeg's strided link reservation, which
     * tests/test_noc.cc checks hop by hop against consecutive path()
     * tiles.
     */
    std::vector<CoreId> path(CoreId src, CoreId dst,
                             RouteOrder order) const;

    /**
     * Select the dimension order for a packet of a cluster: Y-X when the
     * source lies in the cluster's boundary row (the row the cluster only
     * partially owns), X-Y otherwise. Inline: runs per packet.
     */
    RouteOrder
    selectOrder(CoreId src, const ClusterRange &cluster) const
    {
        return selectOrder(src, topo_.coordOf(src), cluster);
    }

    /**
     * selectOrder() for a caller that already holds the source
     * coordinate (the network's fused round-trip walk derives each
     * endpoint's coordinate once and reuses it for both legs).
     */
    RouteOrder
    selectOrder(CoreId src, const Coord &src_c,
                const ClusterRange &cluster) const
    {
        const unsigned width = topo_.width();
        // The boundary row is the row the cluster only partially owns
        // (if any). For a prefix cluster that is the row of its last
        // tile when the cluster does not end at a row boundary; for a
        // suffix cluster, the row of its first tile when it does not
        // start at one.
        const bool starts_aligned = cluster.first % width == 0;
        const bool ends_aligned =
            (cluster.first + cluster.count) % width == 0;

        if (!ends_aligned) {
            const Coord last_c = topo_.coordOf(cluster.last());
            if (src_c.y == last_c.y && cluster.contains(src))
                return RouteOrder::YX;
        }
        if (!starts_aligned) {
            const Coord first_c = topo_.coordOf(cluster.first);
            if (src_c.y == first_c.y && cluster.contains(src))
                return RouteOrder::YX;
        }
        return RouteOrder::XY;
    }

    /** True when every router of @p p lies inside @p cluster. */
    bool pathContained(const std::vector<CoreId> &p,
                       const ClusterRange &cluster) const;

    /**
     * Containment of the @p order route from coordinate @p s to
     * coordinate @p d (endpoints included) in @p cluster, computed
     * analytically — O(1), no walk. Network::walkLeg runs it per packet
     * on the endpoint coordinates it already holds.
     *
     * A dimension-ordered route is two straight segments, and a cluster
     * is one contiguous row-major id interval; an id interval contains a
     * tile set iff it contains the set's minimum and maximum tile ids,
     * which for straight segments lie at the segment endpoints. The
     * equivalence with pathContained() over path() is pinned by
     * tests/test_noc.cc.
     */
    bool
    orderedRouteContained(const Coord &s, const Coord &d, RouteOrder order,
                          const ClusterRange &cluster) const
    {
        const CoreId w = topo_.width();
        const auto id = [w](int x, int y) {
            return static_cast<CoreId>(y) * w + static_cast<CoreId>(x);
        };
        const int min_x = std::min(s.x, d.x);
        const int max_x = std::max(s.x, d.x);
        const int min_y = std::min(s.y, d.y);
        const int max_y = std::max(s.y, d.y);
        // The route is one horizontal segment (in the turn row) and one
        // vertical segment (in the turn column); min/max tile ids over
        // the route are the min/max over the four segment endpoints.
        CoreId min_id;
        CoreId max_id;
        if (order == RouteOrder::XY) {
            min_id = std::min(id(min_x, s.y), id(d.x, min_y));
            max_id = std::max(id(max_x, s.y), id(d.x, max_y));
        } else {
            min_id = std::min(id(s.x, min_y), id(min_x, d.y));
            max_id = std::max(id(s.x, max_y), id(max_x, d.y));
        }
        return cluster.contains(min_id) && cluster.contains(max_id);
    }

  private:
    const Topology &topo_;
};

} // namespace ih

#endif // IH_NOC_ROUTING_HH
