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
 * route and pathContained() checks the guarantee on it. The network
 * derives each (cluster, src, dst) route once, with selectOrder() and
 * the O(1) orderedRouteContained(), into its route plan.
 */

#ifndef IH_NOC_ROUTING_HH
#define IH_NOC_ROUTING_HH

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
     * partially owns), X-Y otherwise.
     */
    RouteOrder selectOrder(CoreId src, const ClusterRange &cluster) const;

    /** True when every router of @p p lies inside @p cluster. */
    bool pathContained(const std::vector<CoreId> &p,
                       const ClusterRange &cluster) const;

    /**
     * Containment of the @p order route from coordinate @p s to
     * coordinate @p d (endpoints included) in @p cluster, computed
     * analytically — O(1), no walk. The network's route plans take each
     * route's containment bit from it.
     *
     * A dimension-ordered route is two straight segments, and a cluster
     * is one contiguous row-major id interval; an id interval contains a
     * tile set iff it contains the set's minimum and maximum tile ids,
     * which for straight segments lie at the segment endpoints. The
     * equivalence with pathContained() over path() is pinned by
     * tests/test_noc.cc.
     */
    bool orderedRouteContained(const Coord &s, const Coord &d,
                               RouteOrder order,
                               const ClusterRange &cluster) const;

  private:
    const Topology &topo_;
};

} // namespace ih

#endif // IH_NOC_ROUTING_HH
