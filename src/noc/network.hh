/**
 * @file
 * Timing and isolation accounting for the 2-D mesh network.
 *
 * The network charges a fixed per-hop latency plus contention: each
 * directed link keeps a next-free-time and packets reserve the links on
 * their path in order. Because the execution engine always advances the
 * globally earliest thread, reservations are made in (approximately)
 * global time order, which makes this classic analytic contention model
 * consistent.
 *
 * The network also owns the isolation bookkeeping: every traversal is
 * checked against the active cluster map and any route that leaves its
 * cluster is counted as an isolation violation (the property tests
 * require this counter to stay zero for IRONHIDE configurations).
 */

#ifndef IH_NOC_NETWORK_HH
#define IH_NOC_NETWORK_HH

#include <cstddef>
#include <cstdlib>
#include <initializer_list>
#include <vector>

#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/stats.hh"

namespace ih
{

/** Mesh network timing model with cluster-isolation accounting. */
class Network
{
  public:
    Network(const SysConfig &cfg, const Topology &topo);

    /**
     * Send a packet of @p flits flits from tile @p src to tile @p dst,
     * injected at time @p when, using dimension order chosen for
     * @p cluster (pass the full-machine range when clustering is off).
     *
     * Defined inline (together with walkLeg) because every L1 miss pays
     * at least two traversals.
     *
     * @return arrival time at @p dst.
     */
    Cycle
    traverse(CoreId src, CoreId dst, Cycle when, unsigned flits,
             const ClusterRange &cluster)
    {
        // Local access: no network is involved, so no packet, flit or
        // latency counter moves (a src == dst "traversal" inflating the
        // traffic stats was a latent accounting bug).
        if (src == dst)
            return when;
        statPackets_.inc();
        statFlits_.inc(flits);
        return walkLeg(src, topo_.coordOf(src), topo_.coordOf(dst),
                       when, flits, cluster);
    }

    /**
     * Round trip: request of @p req_flits then reply of @p rsp_flits.
     * Fused two-leg walk: each endpoint's coordinate is derived once and
     * reused for both legs (every invalidation and dirty-forward round
     * pays this path).
     */
    Cycle
    roundTrip(CoreId a, CoreId b, Cycle when, unsigned req_flits,
              unsigned rsp_flits, const ClusterRange &cluster)
    {
        if (a == b)
            return when; // local round trip, nothing traverses
        statPackets_.inc(2);
        statFlits_.inc(req_flits + rsp_flits);
        const Coord ca = topo_.coordOf(a);
        const Coord cb = topo_.coordOf(b);
        const Cycle arrive = walkLeg(a, ca, cb, when, req_flits,
                                     cluster);
        return walkLeg(b, cb, ca, arrive, rsp_flits, cluster);
    }

    /** Reset all link reservations (used between experiment phases). */
    void resetLinkState();

    StatGroup &stats() { return stats_; }
    std::uint64_t isolationViolations() const
    {
        return stats_.value("isolation_violations");
    }

  private:
    /** Directed link off a router: its offset in the tile's quad of
     *  link_free_ slots. */
    enum Direction : unsigned
    {
        EAST = 0,  ///< x + 1
        WEST = 1,  ///< x - 1
        SOUTH = 2, ///< y + 1
        NORTH = 3, ///< y - 1
    };

    /** One straight segment of a route: its hop count, the link each
     *  hop takes, and the link_free_ stride from one tile to the next. */
    struct Segment
    {
        unsigned hops;
        unsigned dir;
        std::ptrdiff_t stride;
    };

    /**
     * One directed leg of a traversal from @p src (at coordinate
     * @p s) to the tile at coordinate @p e (the endpoints differ). The
     * simulation's only route walk; tests/test_noc.cc checks it link by
     * link against Router::path.
     *
     * Wormhole-ish model: head flit pays hop latency + link wait per
     * hop; body flits stream behind (serialization charged once at the
     * end). A dimension-ordered route is two straight segments; each
     * walks a pointer over the raw link_free_ array by one fixed
     * stride per hop (+-4 on X, +-4*width on Y). Everything the hop
     * loop updates is a local, so it stays in registers, and the
     * link-stall cycles are summed over the leg and counted once.
     */
    Cycle
    walkLeg(CoreId src, const Coord &s, const Coord &e, Cycle when,
            unsigned flits, const ClusterRange &cluster)
    {
        const RouteOrder order = router_.selectOrder(src, s, cluster);
        if (!router_.orderedRouteContained(s, e, order, cluster))
            statIsolationViolations_.inc();

        const int dx = e.x - s.x;
        const int dy = e.y - s.y;
        const std::ptrdiff_t ystride =
            static_cast<std::ptrdiff_t>(topo_.width()) * 4;
        const Segment along_x{static_cast<unsigned>(std::abs(dx)),
                              dx > 0 ? EAST : WEST, dx > 0 ? 4 : -4};
        const Segment along_y{static_cast<unsigned>(std::abs(dy)),
                              dy > 0 ? SOUTH : NORTH,
                              dy > 0 ? ystride : -ystride};
        const bool xy = order == RouteOrder::XY;

        const Cycle hop = cfg_.hopLatency;
        Cycle *quad = link_free_.data() + static_cast<std::size_t>(src) * 4;
        Cycle t = when;
        Cycle stall = 0;
        for (const Segment &seg : {xy ? along_x : along_y,
                                   xy ? along_y : along_x}) {
            const std::ptrdiff_t stride = seg.stride;
            Cycle *link = quad + seg.dir;
            for (unsigned n = seg.hops; n != 0; --n, link += stride) {
                if (*link > t) {
                    stall += *link - t;
                    t = *link;
                }
                // The link stays busy while all flits stream across it.
                *link = t + flits;
                t += hop;
            }
            quad = link - seg.dir; // the turn (or destination) tile
        }
        statLinkStallCycles_.inc(stall);
        t += flits > 1 ? (flits - 1) : 0; // tail serialization
        statTotalLatency_.inc(t - when);
        return t;
    }

    const SysConfig &cfg_;
    const Topology &topo_;
    Router router_;
    /** next-free-time per directed link: tile * 4 + Direction. */
    std::vector<Cycle> link_free_;
    StatGroup stats_;
    // Per-packet counters bound once (StatGroup references are stable).
    Counter &statPackets_;
    Counter &statFlits_;
    Counter &statIsolationViolations_;
    Counter &statLinkStallCycles_;
    Counter &statTotalLatency_;
};

} // namespace ih

#endif // IH_NOC_NETWORK_HH
