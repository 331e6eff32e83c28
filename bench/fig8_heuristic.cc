/**
 * @file
 * Regenerates Figure 8: sensitivity of IRONHIDE to the cluster
 * reconfiguration decision. Geomean completion time (normalized to MI6
 * = 100) for the gradient Heuristic, the exhaustive Optimal oracle, and
 * fixed +/-x% decision variations that give the secure cluster x% of
 * the machine's cores more (+) or fewer (-) than Optimal.
 *
 * Paper shapes: Optimal ~2.3x and Heuristic ~2.1x better than MI6, with
 * the Heuristic staying within the +/-5% variation band.
 *
 * The irregular (app x {MI6, 8 IRONHIDE configs}) grid is built as an
 * explicit job vector and fans out over IRONHIDE_THREADS sweep
 * workers like every figure bench, with the standard
 * fault-tolerance flags (IRONHIDE_SHARD, --isolate, --journal,
 * --merge) and `--json <path>` writing the "sweep/v2" report.
 */

#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

int
main(int argc, char **argv)
{
    const SysConfig cfg = benchConfig();
    // Fig 8 sweeps many configurations; shrink inputs to keep it quick.
    const std::vector<AppSpec> apps = standardApps(benchScale() * 0.5);

    struct Config
    {
        const char *label;
        SplitPolicy policy;
        int variation;
    };
    const std::vector<Config> configs = {
        {"Heuristic", SplitPolicy::HEURISTIC, 0},
        {"Optimal", SplitPolicy::OPTIMAL, 0},
        {"+5%", SplitPolicy::OPTIMAL, +5},
        {"-5%", SplitPolicy::OPTIMAL, -5},
        {"+10%", SplitPolicy::OPTIMAL, +10},
        {"-10%", SplitPolicy::OPTIMAL, -10},
        {"+25%", SplitPolicy::OPTIMAL, +25},
        {"-25%", SplitPolicy::OPTIMAL, -25},
    };

    // App-major: each app owns 9 consecutive jobs — its MI6 reference
    // followed by the 8 IRONHIDE decision configs in table order.
    const std::size_t stride = 1 + configs.size();
    std::vector<SweepJob> jobs;
    jobs.reserve(apps.size() * stride);
    for (const AppSpec &app : apps) {
        SweepJob mi6;
        mi6.app = app;
        mi6.arch = ArchKind::MI6;
        mi6.cfg = cfg;
        jobs.push_back(std::move(mi6));
        for (const Config &c : configs) {
            SweepJob job;
            job.app = app;
            job.arch = ArchKind::IRONHIDE;
            job.cfg = cfg;
            job.ihopts.policy = c.policy;
            job.ihopts.variationPct = c.variation;
            job.tag = c.label;
            jobs.push_back(std::move(job));
        }
    }

    printBanner("Figure 8",
                "Cluster-reconfiguration decision study: completion time "
                "normalized\nto MI6 = 100 (lower is better). Paper: "
                "Optimal ~2.3x, Heuristic ~2.1x\nbetter than MI6; "
                "Heuristic within the +/-5% variations.");

    const SweepOutcome out =
        runBenchSweep(argc, argv, "fig8_heuristic", jobs);
    if (!out.complete() || out.sharded()) {
        // The per-app MI6 normalization below needs every cell; a
        // partial run already reported its cells above.
        maybeWriteJsonReport(argc, argv, "fig8_heuristic", jobs, out);
        return out.exitCode();
    }
    const std::vector<ExperimentResult> &results = out.results;

    Table table({"configuration", "normalized completion (MI6=100)",
                 "speedup vs MI6"});
    table.addRow({"MI6", "100.0", "1.00x"});

    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<double> norm;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const double mi6 =
                results[i * stride].run.completionMs();
            norm.push_back(
                results[i * stride + 1 + c].run.completionMs() / mi6 *
                100.0);
        }
        const double g = geomean(norm);
        table.addRow({configs[c].label, Table::num(g, 1),
                      Table::num(100.0 / g) + "x"});
    }
    table.print();

    maybeWriteJsonReport(argc, argv, "fig8_heuristic", jobs, out);
    return out.exitCode();
}
