/**
 * @file
 * Ablation A1 (design choice, Section III-B2): why the mesh needs
 * *bidirectional* X-Y / Y-X routing for strong isolation.
 *
 * For every cluster split, checks all intra-cluster (src, dst) pairs of
 * both clusters: with X-Y-only routing, packets of a partially-owned
 * row drift through the other cluster's routers (isolation violations);
 * with the bidirectional policy the property tests rely on, containment
 * is total. Also reports the average route length, showing the security
 * fix costs no extra hops.
 *
 * The (split x policy) audit grid fans out over IRONHIDE_THREADS sweep
 * workers, and `--json <path>` writes a "BENCH_routing/v1"
 * report. Each cell is a pure function of (split, policy, topology),
 * so the report bytes are identical at any worker count.
 */

#include <cstdio>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "noc/routing.hh"

using namespace ih;

namespace
{

struct RoutingJob
{
    unsigned split = 0;
    bool bidirectional = false;

    const char *policy() const { return bidirectional ? "bidir" : "xy"; }
};

struct Audit
{
    std::uint64_t pairs = 0;
    std::uint64_t violations = 0;
    double avgHops = 0.0;
};

Audit
auditPolicy(const Topology &topo, unsigned split, bool bidirectional)
{
    const Router router(topo);
    const unsigned tiles = topo.numTiles();
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, tiles - split};

    Audit a;
    double hops = 0.0;
    for (const ClusterRange &cl : {secure, insecure}) {
        for (CoreId s = cl.first; s < cl.first + cl.count; ++s) {
            for (CoreId d = cl.first; d < cl.first + cl.count; ++d) {
                const RouteOrder order = bidirectional
                                             ? router.selectOrder(s, cl)
                                             : RouteOrder::XY;
                const auto path = router.path(s, d, order);
                ++a.pairs;
                hops += static_cast<double>(path.size()) - 1.0;
                if (!router.pathContained(path, cl))
                    ++a.violations;
            }
        }
    }
    a.avgHops = hops / static_cast<double>(a.pairs);
    return a;
}

std::string
routingToJson(const std::vector<RoutingJob> &jobs,
              const std::vector<Audit> &results)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("BENCH_routing/v1");
    w.key("bench").value("abl_routing");
    w.key("results").beginArray();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Audit &a = results[i];
        w.beginObject();
        w.key("secure_cores").value(jobs[i].split);
        w.key("policy").value(jobs[i].policy());
        w.key("pairs").value(a.pairs);
        w.key("violations").value(a.violations);
        w.key("avg_hops").value(a.avgHops);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = jsonReportPath(argc, argv);
    printBanner("Ablation A1 — deterministic routing policy",
                "Cluster containment of X-Y-only vs bidirectional "
                "X-Y/Y-X routing,\nover all intra-cluster pairs of every "
                "split of the 8x8 mesh.");

    const SysConfig cfg = benchConfig();
    const Topology topo(cfg);

    // Split-major, XY-only before bidirectional — the row order below.
    std::vector<RoutingJob> jobs;
    for (unsigned split : {2u, 5u, 8u, 12u, 19u, 32u, 45u, 59u, 62u}) {
        jobs.push_back({split, false});
        jobs.push_back({split, true});
    }

    std::vector<Audit> results(jobs.size());
    parallelForIndex(jobs.size(), knobWorkers(Knob::THREADS),
                     [&](std::size_t i) {
                         results[i] = auditPolicy(topo, jobs[i].split,
                                                  jobs[i].bidirectional);
                     });

    Table table({"secure cores", "XY-only violations", "XY-only hops",
                 "bidir violations", "bidir hops"});
    std::uint64_t xy_total = 0;
    for (std::size_t i = 0; i < jobs.size(); i += 2) {
        const Audit &xy = results[i];
        const Audit &bi = results[i + 1];
        xy_total += xy.violations;
        table.addRow({strprintf("%u", jobs[i].split),
                      strprintf("%llu", (unsigned long long)xy.violations),
                      Table::num(xy.avgHops),
                      strprintf("%llu", (unsigned long long)bi.violations),
                      Table::num(bi.avgHops)});
    }
    table.print();
    std::printf("\nX-Y-only routing leaks traffic across the boundary for "
                "every partial-row split\n(%llu violating pairs total); "
                "the bidirectional policy is violation-free at\nidentical "
                "average hop counts.\n",
                (unsigned long long)xy_total);

    if (json_path) {
        writeTextFile(json_path, routingToJson(jobs, results) + "\n");
        std::printf("wrote JSON report: %s\n", json_path);
    }
    return 0;
}
