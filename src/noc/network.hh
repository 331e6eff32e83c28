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
 * checked against the cluster it is routed for, and a route that
 * leaves that cluster counts as an isolation violation. An IRONHIDE
 * run whose split never changes counts none; on the 64-tile machine
 * Integration.IronhideWithoutReconfigurationNeverLeavesItsCluster
 * checks that for the nine apps. A reconfiguration can count some: it
 * purges the cores it moves but leaves their sharer bits in the
 * directory, so a later store sends invalidation round trips from a
 * home inside the cluster to a moved core outside it, and both legs
 * count.
 *
 * The policy route of a packet depends only on (cluster, src, dst), so
 * each network derives it once: a route plan per cluster it has routed
 * under holds every (src, dst) pair's two segments and containment
 * bit, filled on first use.
 */

#ifndef IH_NOC_NETWORK_HH
#define IH_NOC_NETWORK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

namespace ih
{

/** Mesh network timing model with cluster-isolation accounting. */
class Network
{
  public:
    Network(const SysConfig &cfg, const Topology &topo);
    // The current plan pointer aims into this object's own plans.
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

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
        return walkLeg(src, dst, when, flits, cluster);
    }

    /**
     * Round trip: request of @p req_flits then reply of @p rsp_flits
     * (every invalidation and dirty-forward round pays this path).
     */
    Cycle
    roundTrip(CoreId a, CoreId b, Cycle when, unsigned req_flits,
              unsigned rsp_flits, const ClusterRange &cluster)
    {
        if (a == b)
            return when; // local round trip, nothing traverses
        statPackets_.inc(2);
        statFlits_.inc(req_flits + rsp_flits);
        const Cycle arrive = walkLeg(a, b, when, req_flits, cluster);
        return walkLeg(b, a, arrive, rsp_flits, cluster);
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
     * One route plan entry: the policy route from one tile to another
     * under one cluster, packed into 32 bits. A dimension-ordered route
     * is two straight segments, stored in walk order; a segment with no
     * hop has count 0. Whole-byte fields keep the walk's decoding to
     * plain byte loads. An entry is all zero until it is filled.
     */
    struct Route
    {
        std::uint8_t hops0;
        std::uint8_t dir0;
        std::uint8_t hops1;
        std::uint8_t dir1 : 2;
        std::uint8_t leaves : 1; ///< some router is outside the cluster
        std::uint8_t filled : 1;

        bool
        operator==(const Route &o) const
        {
            return hops0 == o.hops0 && dir0 == o.dir0 &&
                   hops1 == o.hops1 && dir1 == o.dir1 &&
                   leaves == o.leaves && filled == o.filled;
        }
    };
    static_assert(sizeof(Route) == 4, "a route plan entry is 32 bits");

    /** Every route of one cluster, indexed src * tiles + dst. */
    struct RoutePlan
    {
        ClusterRange cluster;
        std::vector<Route> routes;
    };

    /**
     * The policy route from @p src to @p dst under @p cluster, derived
     * with Router::selectOrder and Router::orderedRouteContained: the
     * plan builder, and Debug builds' cross-check of every entry read.
     */
    Route deriveRoute(CoreId src, CoreId dst,
                      const ClusterRange &cluster) const;

    /** Make @p cluster's plan the current one, creating it empty when
     *  the network has not routed under that cluster before. */
    Route *selectPlan(const ClusterRange &cluster);

    /**
     * One directed leg of a traversal from @p src to @p dst (the
     * endpoints differ). The simulation's only route walk;
     * tests/test_noc.cc checks it link by link against Router::path.
     *
     * Wormhole-ish model: head flit pays hop latency + link wait per
     * hop; body flits stream behind (serialization charged once at the
     * end). The leg's two straight segments come from the cluster's
     * route plan; each walks a pointer over the raw link_free_ array by
     * one fixed stride per hop (+-4 on X, +-4*width on Y). Everything
     * the hop loop updates is a local, so it stays in registers, and
     * the link-stall cycles are summed over the leg and counted once.
     */
    Cycle
    walkLeg(CoreId src, CoreId dst, Cycle when, unsigned flits,
            const ClusterRange &cluster)
    {
        Route *plan = cluster.first == current_.first &&
                              cluster.count == current_.count
                          ? currentRoutes_
                          : selectPlan(cluster);
        Route &entry = plan[static_cast<std::size_t>(src) * tiles_ + dst];
        if (!entry.filled)
            entry = deriveRoute(src, dst, cluster);
        IH_DEBUG_ASSERT(entry == deriveRoute(src, dst, cluster),
                        "route plan of cluster [%u, +%u) disagrees with "
                        "the policy route %u -> %u",
                        cluster.first, cluster.count, src, dst);
        const Route r = entry;
        if (r.leaves)
            statIsolationViolations_.inc();

        const Cycle hop = cfg_.hopLatency;
        Cycle *quad = link_free_.data() + static_cast<std::size_t>(src) * 4;
        Cycle t = when;
        Cycle stall = 0;
        // Two passes over locals, not a loop over a two-segment array:
        // GCC 12 at -O2 built such an array on the stack for every leg.
        unsigned hops = r.hops0;
        unsigned dir = r.dir0;
        for (bool second = false;; second = true) {
            const std::ptrdiff_t stride = strides_[dir];
            Cycle *link = quad + dir;
            for (unsigned n = hops; n != 0; --n, link += stride) {
                if (*link > t) {
                    stall += *link - t;
                    t = *link;
                }
                // The link stays busy while all flits stream across it.
                *link = t + flits;
                t += hop;
            }
            if (second)
                break;
            quad = link - dir; // the turn tile
            hops = r.hops1;
            dir = r.dir1;
        }
        statLinkStallCycles_.inc(stall);
        t += flits > 1 ? (flits - 1) : 0; // tail serialization
        statTotalLatency_.inc(t - when);
        return t;
    }

    const SysConfig &cfg_;
    const Topology &topo_;
    Router router_;
    const unsigned tiles_;
    /** link_free_ stride of one hop, per Direction. */
    const std::array<std::ptrdiff_t, 4> strides_;
    /** next-free-time per directed link: tile * 4 + Direction. */
    std::vector<Cycle> link_free_;
    /** Route plans of the clusters routed under, tiles^2 * 4 bytes
     *  each (16 KiB at 64 tiles). A machine routes under the whole
     *  machine and an IRONHIDE split's two clusters, so it holds at
     *  most 1 + 2 * (tiles - 1) plans, about 2 MiB at 64 tiles. */
    std::vector<RoutePlan> plans_;
    /** The plan the last leg used: its cluster and routes. No cluster
     *  starts at tile ~0, so no leg matches before the first plan. */
    ClusterRange current_{~CoreId{0}, 0};
    Route *currentRoutes_ = nullptr;
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
