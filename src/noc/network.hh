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

    /**
     * One directed leg of a traversal from @p src (at coordinate
     * @p s) to the tile at coordinate @p e (the endpoints differ). The
     * simulation's only route walk; tests/test_noc.cc checks it link by
     * link against Router::path.
     *
     * Wormhole-ish model: head flit pays hop latency + link wait per
     * hop; body flits stream behind (serialization charged once at the
     * end). The reservation loop carries the base index of the current
     * tile's link quad over the raw link_free_ array — one +-4 (X hop)
     * or +-4*width (Y hop) stride per hop — so the per-hop work is a
     * compare, two adds and a store.
     */
    Cycle
    walkLeg(CoreId src, const Coord &s, const Coord &e, Cycle when,
            unsigned flits, const ClusterRange &cluster)
    {
        const RouteOrder order = router_.selectOrder(src, s, cluster);
        if (!router_.orderedRouteContained(s, e, order, cluster))
            statIsolationViolations_.inc();

        Cycle *const lf = link_free_.data();
        const Cycle hop = cfg_.hopLatency;
        const std::size_t ystride =
            static_cast<std::size_t>(topo_.width()) * 4;
        std::size_t li = static_cast<std::size_t>(src) * 4;
        Cycle t = when;
        const auto reserve = [&](std::size_t link) {
            Cycle &slot = lf[link];
            if (slot > t) {
                statLinkStallCycles_.inc(slot - t);
                t = slot;
            }
            // The link stays busy while all flits stream across it.
            slot = t + flits;
            t += hop;
        };
        int x = s.x;
        int y = s.y;
        const auto walk_x = [&]() {
            for (; x < e.x; ++x, li += 4)
                reserve(li + EAST);
            for (; x > e.x; --x, li -= 4)
                reserve(li + WEST);
        };
        const auto walk_y = [&]() {
            for (; y < e.y; ++y, li += ystride)
                reserve(li + SOUTH);
            for (; y > e.y; --y, li -= ystride)
                reserve(li + NORTH);
        };
        if (order == RouteOrder::XY) {
            walk_x();
            walk_y();
        } else {
            walk_y();
            walk_x();
        }
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
