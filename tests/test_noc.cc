/**
 * @file
 * NoC tests: topology geometry, dimension-ordered routing, the
 * central strong-isolation property — for every legal cluster split,
 * every intra-cluster route (including memory-controller traffic) stays
 * on routers owned by that cluster under the bidirectional X-Y/Y-X
 * policy — and the network's link walk and per-cluster route plans
 * checked against Router::path, the one reference walk.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "noc/network.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

SysConfig
cfg8x8()
{
    SysConfig cfg;
    cfg.validate();
    return cfg;
}

/** The route the policy picks for @p cl traffic src -> dst stays on
 *  routers @p cl owns, checked on the reference path(). */
bool
policyRouteContained(const Router &router, CoreId src, CoreId dst,
                     const ClusterRange &cl)
{
    return router.pathContained(
        router.path(src, dst, router.selectOrder(src, cl)), cl);
}

} // namespace

TEST(Topology, RowMajorCoordinates)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    EXPECT_EQ(topo.coordOf(0), (Coord{0, 0}));
    EXPECT_EQ(topo.coordOf(7), (Coord{7, 0}));
    EXPECT_EQ(topo.coordOf(8), (Coord{0, 1}));
    EXPECT_EQ(topo.coordOf(63), (Coord{7, 7}));
    EXPECT_EQ(topo.tileAt({3, 2}), 19u);
}

TEST(Topology, McAttachmentsAtCorners)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    ASSERT_EQ(topo.numMcs(), 4u);
    // Top-edge MCs at the top-left corner columns.
    EXPECT_EQ(topo.mcAttachTile(0), 0u);
    EXPECT_EQ(topo.mcAttachTile(1), 1u);
    // Bottom-edge MCs at the bottom-right corner columns.
    EXPECT_EQ(topo.mcAttachTile(2), 63u);
    EXPECT_EQ(topo.mcAttachTile(3), 62u);
}

TEST(Topology, HopDistance)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    EXPECT_EQ(topo.hopDistance(0, 0), 0u);
    EXPECT_EQ(topo.hopDistance(0, 7), 7u);
    EXPECT_EQ(topo.hopDistance(0, 63), 14u);
    EXPECT_EQ(topo.hopDistance(9, 18), 2u);
}

TEST(Routing, XyPathShape)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    // (1,1) -> (3,2) via XY: x first.
    const auto p = router.path(topo.tileAt({1, 1}), topo.tileAt({3, 2}),
                               RouteOrder::XY);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], topo.tileAt({1, 1}));
    EXPECT_EQ(p[1], topo.tileAt({2, 1}));
    EXPECT_EQ(p[2], topo.tileAt({3, 1}));
    EXPECT_EQ(p[3], topo.tileAt({3, 2}));
}

TEST(Routing, YxPathShape)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const auto p = router.path(topo.tileAt({1, 1}), topo.tileAt({3, 2}),
                               RouteOrder::YX);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[1], topo.tileAt({1, 2}));
    EXPECT_EQ(p[2], topo.tileAt({2, 2}));
}

TEST(Routing, SelfRouteIsSingleton)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    EXPECT_EQ(router.path(5, 5, RouteOrder::XY).size(), 1u);
}

TEST(Routing, PathLengthIsManhattanDistance)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    for (CoreId s = 0; s < 64; s += 5) {
        for (CoreId d = 0; d < 64; d += 7) {
            for (RouteOrder o : {RouteOrder::XY, RouteOrder::YX}) {
                EXPECT_EQ(router.path(s, d, o).size(),
                          topo.hopDistance(s, d) + 1);
            }
        }
    }
}

TEST(Routing, XyOnlyViolatesPartialRowClusters)
{
    // The motivating counter-example from the paper: with X-Y-only
    // routing, a cluster owning a partial row leaks traffic.
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const ClusterRange secure{0, 10}; // row 0 + two tiles of row 1
    // (7,0) -> (1,1): X-Y stays inside; (1,1) -> (7,0) X-Y walks row 1
    // through insecure tiles.
    const auto bad = router.path(topo.tileAt({1, 1}), topo.tileAt({7, 0}),
                                 RouteOrder::XY);
    EXPECT_FALSE(router.pathContained(bad, secure));
    // The policy picks Y-X for boundary-row sources, which is contained.
    EXPECT_EQ(router.selectOrder(topo.tileAt({1, 1}), secure),
              RouteOrder::YX);
    EXPECT_TRUE(policyRouteContained(router, topo.tileAt({1, 1}),
                                     topo.tileAt({7, 0}), secure));
}

/**
 * The central containment property (paper Section III-B2): for every
 * split s in [1, 63], all intra-cluster pairs of both the secure prefix
 * and the insecure suffix route entirely within their cluster, and each
 * cluster's traffic to its own memory controllers is contained too.
 */
class ContainmentProperty : public testing::TestWithParam<unsigned>
{
};

TEST_P(ContainmentProperty, AllIntraClusterRoutesContained)
{
    const unsigned split = GetParam();
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};

    for (const ClusterRange &cl : {secure, insecure}) {
        for (CoreId s = cl.first; s < cl.first + cl.count; ++s) {
            for (CoreId d = cl.first; d < cl.first + cl.count; ++d) {
                EXPECT_TRUE(policyRouteContained(router, s, d, cl))
                    << "split=" << split << " src=" << s << " dst=" << d;
            }
        }
    }
}

TEST_P(ContainmentProperty, McTrafficContained)
{
    const unsigned split = GetParam();
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};

    for (const ClusterRange &cl : {secure, insecure}) {
        // MCs whose attachment tile the cluster owns.
        for (McId m = 0; m < topo.numMcs(); ++m) {
            const CoreId attach = topo.mcAttachTile(m);
            if (!cl.contains(attach))
                continue;
            for (CoreId s = cl.first; s < cl.first + cl.count; ++s) {
                EXPECT_TRUE(policyRouteContained(router, s, attach, cl))
                    << "split=" << split << " src=" << s << " mc=" << m;
                EXPECT_TRUE(policyRouteContained(router, attach, s, cl))
                    << "split=" << split << " mc=" << m << " dst=" << s;
            }
        }
    }
}

TEST_P(ContainmentProperty, EachClusterOwnsAController)
{
    const unsigned split = GetParam();
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};
    unsigned s_mcs = 0, i_mcs = 0;
    for (McId m = 0; m < topo.numMcs(); ++m) {
        s_mcs += secure.contains(topo.mcAttachTile(m));
        i_mcs += insecure.contains(topo.mcAttachTile(m));
    }
    EXPECT_GE(s_mcs, 1u);
    EXPECT_GE(i_mcs, 1u);
    EXPECT_EQ(s_mcs + i_mcs, topo.numMcs());
}

INSTANTIATE_TEST_SUITE_P(AllSplits, ContainmentProperty,
                         testing::Range(1u, 64u));

TEST(Network, TraverseChargesHopsAndSerialization)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    // Single-flit packet: pure hop latency.
    EXPECT_EQ(net.traverse(0, 3, 100, 1, whole), 100 + 3 * cfg.hopLatency);
    net.resetLinkState();
    // Multi-flit packet: + (flits-1) tail serialization.
    EXPECT_EQ(net.traverse(0, 3, 100, 5, whole),
              100 + 3 * cfg.hopLatency + 4);
}

TEST(Network, ContentionDelaysSecondPacket)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    const Cycle t1 = net.traverse(0, 7, 0, 8, whole);
    const Cycle t2 = net.traverse(0, 7, 0, 8, whole); // same links, same time
    EXPECT_GT(t2, t1);
    EXPECT_GT(net.stats().value("link_stall_cycles"), 0u);
}

TEST(Network, LocalAccessBypassesNetwork)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    EXPECT_EQ(net.traverse(9, 9, 500, 5, whole), 500u);
}

TEST(Network, ViolationCounterCatchesCrossClusterRoutes)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange secure{0, 8}; // row 0 only
    // A route from row 0 to row 3 leaves the cluster.
    net.traverse(0, 24, 0, 1, secure);
    EXPECT_EQ(net.isolationViolations(), 1u);
}

TEST(Network, RoundTripIsTwoTraversals)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    const Cycle rt = net.roundTrip(0, 9, 0, 1, 5, whole);
    EXPECT_EQ(rt, 2 * cfg.hopLatency // 0->9 is 2 hops
                      + 2 * cfg.hopLatency + 4);
}

namespace
{

/** A WxH mesh config for the routing-equivalence sweeps. */
SysConfig
meshCfg(unsigned w, unsigned h)
{
    SysConfig cfg;
    cfg.meshWidth = w;
    cfg.meshHeight = h;
    cfg.numMcs = 2;
    cfg.numRegions = 4;
    cfg.validate();
    return cfg;
}

} // namespace

// The O(1) analytic containment check must agree with scanning the
// materialized path, for every (src, dst, order) pair and every
// contiguous cluster range (including empty and full-machine ranges).
TEST(Routing, AnalyticContainmentMatchesPathScan)
{
    for (const auto &[w, h] :
         {std::pair<unsigned, unsigned>{4, 4}, {6, 6}, {4, 6}, {6, 4}}) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        const unsigned n = topo.numTiles();
        for (CoreId src = 0; src < n; ++src) {
            for (CoreId dst = 0; dst < n; ++dst) {
                for (const RouteOrder order :
                     {RouteOrder::XY, RouteOrder::YX}) {
                    const std::vector<CoreId> ref =
                        router.path(src, dst, order);
                    for (CoreId first = 0; first < n; ++first) {
                        for (unsigned count = 0; count <= n - first;
                             ++count) {
                            const ClusterRange cl{first, count};
                            ASSERT_EQ(router.orderedRouteContained(
                                          topo.coordOf(src),
                                          topo.coordOf(dst), order, cl),
                                      router.pathContained(ref, cl))
                                << w << "x" << h << " src=" << src
                                << " dst=" << dst << " first=" << first
                                << " count=" << count;
                        }
                    }
                }
            }
        }
    }
}


namespace
{

/**
 * Reference model of Network::traverse/roundTrip. Each leg walks
 * consecutive Router::path tiles under the policy order and keys a
 * link's next-free time by its directed (from, to) tile pair, so it
 * shares no link indexing, stride or containment arithmetic with
 * Network::walkLeg. It counts what the network's stats group counts.
 */
class ShadowNetwork
{
  public:
    ShadowNetwork(const SysConfig &cfg, const Router &router)
        : hop_(cfg.hopLatency), router_(router)
    {
    }

    Cycle
    traverse(CoreId src, CoreId dst, Cycle when, unsigned flits,
             const ClusterRange &cl)
    {
        if (src == dst)
            return when; // nothing is sent
        ++packets;
        this->flits += flits;
        return leg(src, dst, when, flits, cl);
    }

    Cycle
    roundTrip(CoreId a, CoreId b, Cycle when, unsigned req_flits,
              unsigned rsp_flits, const ClusterRange &cl)
    {
        if (a == b)
            return when;
        packets += 2;
        flits += req_flits + rsp_flits;
        return leg(b, a, leg(a, b, when, req_flits, cl), rsp_flits, cl);
    }

    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t link_stall_cycles = 0;
    std::uint64_t total_latency = 0;
    std::uint64_t isolation_violations = 0;

  private:
    Cycle
    leg(CoreId src, CoreId dst, Cycle when, unsigned flits,
        const ClusterRange &cl)
    {
        const std::vector<CoreId> p =
            router_.path(src, dst, router_.selectOrder(src, cl));
        if (!router_.pathContained(p, cl))
            ++isolation_violations;
        Cycle t = when;
        for (std::size_t i = 1; i < p.size(); ++i) {
            Cycle &slot = linkFree_[{p[i - 1], p[i]}];
            if (slot > t) {
                link_stall_cycles += slot - t;
                t = slot;
            }
            slot = t + flits;
            t += hop_;
        }
        t += flits > 1 ? flits - 1 : 0;
        total_latency += t - when;
        return t;
    }

    Cycle hop_;
    const Router &router_;
    std::map<std::pair<CoreId, CoreId>, Cycle> linkFree_;
};

/** The contiguous clusters a mesh's traffic is replayed under: the
 *  whole machine, a row-cutting secure prefix and insecure suffix, and
 *  @p extra random ranges drawn from @p rng. */
std::vector<ClusterRange>
testClusters(const Topology &topo, Rng &rng, unsigned extra)
{
    const unsigned w = topo.width();
    const unsigned tiles = topo.numTiles();
    std::vector<ClusterRange> out = {ClusterRange{0, tiles}};
    if (w > 1) {
        // A split inside row 1 leaves both clusters one partial row.
        const unsigned split = w + 1 + static_cast<unsigned>(
                                           rng.nextRange(w - 1));
        out.push_back(ClusterRange{0, split});
        out.push_back(ClusterRange{split, tiles - split});
    }
    for (unsigned i = 0; i < extra; ++i) {
        const auto first = static_cast<CoreId>(rng.nextRange(tiles));
        const auto count =
            static_cast<unsigned>(rng.nextBetween(1, tiles - first));
        out.push_back(ClusterRange{first, count});
    }
    return out;
}

} // namespace

// Network::walkLeg, the simulation's only route walk, must reserve
// exactly the links of Router::path, in path order: same arrival time
// for every traverse and roundTrip, and the same packets, flits,
// link_stall_cycles, total_latency and isolation_violations counters as
// the shadow model. Link state carries across packets (staggered
// injection keeps links contended), every (src, dst) pair runs under
// the whole machine, row-cutting prefix and suffix clusters and random
// contiguous ranges, and a violation is a policy route that leaves its
// cluster on path(). Meshes: the square and rectangular ones the
// routing tests use plus seeded random geometries with two memory
// controllers.
TEST(Network, TraverseAndRoundTripMatchPathReservationModel)
{
    Rng rng(0x1f0c5eedULL);
    std::uint64_t stalls = 0;
    std::uint64_t violations = 0;
    std::vector<std::pair<unsigned, unsigned>> meshes = {
        {4, 4}, {6, 6}, {4, 6}, {6, 4}};
    for (int i = 0; i < 24; ++i)
        meshes.emplace_back(static_cast<unsigned>(rng.nextBetween(1, 9)),
                            static_cast<unsigned>(rng.nextBetween(2, 9)));

    for (const auto &[w, h] : meshes) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        Network net(cfg, topo);
        ShadowNetwork shadow(cfg, router);
        const unsigned tiles = topo.numTiles();
        Cycle when = 0;
        for (const ClusterRange &cl : testClusters(topo, rng, 3)) {
            const auto where = [&](CoreId src, CoreId dst) {
                return testing::Message()
                       << w << "x" << h << " src " << src << " dst " << dst
                       << " cluster [" << cl.first << "," << cl.count
                       << ")";
            };
            for (CoreId src = 0; src < tiles; ++src) {
                for (CoreId dst = 0; dst < tiles; ++dst) {
                    const unsigned flits = 1 + (src + dst) % 5;
                    ASSERT_EQ(net.traverse(src, dst, when, flits, cl),
                              shadow.traverse(src, dst, when, flits, cl))
                        << where(src, dst);
                    // Staggered injection keeps some links contended.
                    when += (src * 7 + dst) % 3;
                }
            }
            for (CoreId a = 0; a < tiles; ++a) {
                for (CoreId b = 0; b < tiles; ++b) {
                    ASSERT_EQ(net.roundTrip(a, b, when, 1, 5, cl),
                              shadow.roundTrip(a, b, when, 1, 5, cl))
                        << "round trip " << where(a, b);
                    when += (a + b * 5) % 4;
                }
            }
        }
        const StatGroup &st = net.stats();
        EXPECT_EQ(st.value("packets"), shadow.packets) << w << "x" << h;
        EXPECT_EQ(st.value("flits"), shadow.flits) << w << "x" << h;
        EXPECT_EQ(st.value("link_stall_cycles"), shadow.link_stall_cycles)
            << w << "x" << h;
        EXPECT_EQ(st.value("total_latency"), shadow.total_latency)
            << w << "x" << h;
        EXPECT_EQ(st.value("isolation_violations"),
                  shadow.isolation_violations)
            << w << "x" << h;
        stalls += shadow.link_stall_cycles;
        violations += shadow.isolation_violations;
    }
    // The traffic exercises contention and cross-cluster routes, so
    // neither counter comparison is vacuous.
    EXPECT_GT(stalls, 0u);
    EXPECT_GT(violations, 0u);
}

// A network derives each route once into a plan per cluster, so every
// packet must be walked with its own cluster's plan. The traffic below
// interleaves packets under ranges that share their first tile but not
// their size and ranges of one size at different first tiles, and
// returns to earlier ranges. One ClusterRange object is reassigned in
// place between packets, as Process::setCluster does when IRONHIDE
// re-binds a split, and each packet alternates between it and the
// range it held before. Every arrival and the running isolation count
// must match the shadow model, which derives each route afresh.
TEST(Network, RoutePlansFollowEachPacketsCluster)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    Network net(cfg, topo);
    ShadowNetwork shadow(cfg, router);
    const unsigned tiles = topo.numTiles();
    Rng rng(0x91a45eedULL);

    const std::vector<ClusterRange> ranges = {
        {0, 64}, {0, 10}, {0, 13}, {0, 8},    // one first tile
        {5, 20}, {9, 20}, {17, 20}, {44, 20}, // one size
    };
    const std::vector<std::size_t> visits = {0, 1, 2, 3, 1, 0, 4, 5,
                                             6, 7, 5, 2, 7, 4, 3};

    ClusterRange cl = ranges[visits[0]];
    Cycle when = 0;
    for (const std::size_t v : visits) {
        const ClusterRange before = cl;
        cl = ranges[v];
        for (unsigned p = 0; p < 32; ++p) {
            const ClusterRange &on = p % 2 == 0 ? cl : before;
            // Sources inside the cluster, as its cores send; half the
            // destinations inside too, half anywhere.
            const auto inside = [&] {
                return static_cast<CoreId>(on.first +
                                           rng.nextRange(on.count));
            };
            const CoreId src = inside();
            const CoreId dst = p % 4 < 2
                                   ? inside()
                                   : static_cast<CoreId>(rng.nextRange(tiles));
            const auto where = [&] {
                return testing::Message()
                       << "range " << v << " packet " << p << " src " << src
                       << " dst " << dst << " cluster [" << on.first << ","
                       << on.count << ")";
            };
            if (p % 3 == 2) {
                ASSERT_EQ(net.roundTrip(src, dst, when, 1, 5, on),
                          shadow.roundTrip(src, dst, when, 1, 5, on))
                    << where();
            } else {
                const unsigned flits = 1 + p % 5;
                ASSERT_EQ(net.traverse(src, dst, when, flits, on),
                          shadow.traverse(src, dst, when, flits, on))
                    << where();
            }
            ASSERT_EQ(net.isolationViolations(),
                      shadow.isolation_violations)
                << where();
            when += rng.nextRange(3);
        }
    }
    const StatGroup &st = net.stats();
    EXPECT_EQ(st.value("packets"), shadow.packets);
    EXPECT_EQ(st.value("flits"), shadow.flits);
    EXPECT_EQ(st.value("link_stall_cycles"), shadow.link_stall_cycles);
    EXPECT_EQ(st.value("total_latency"), shadow.total_latency);
    EXPECT_GT(shadow.link_stall_cycles, 0u);
    EXPECT_GT(shadow.isolation_violations, 0u);
}
