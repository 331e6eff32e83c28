/**
 * @file
 * Regenerates Figure 8: sensitivity of IRONHIDE to the cluster
 * reconfiguration decision. Geomean completion time (normalized to MI6
 * = 100) for the gradient Heuristic, the exhaustive Optimal oracle, and
 * fixed +/-x% decision variations that give the secure cluster x% of
 * the machine's cores more (+) or fewer (-) than Optimal.
 *
 * Optimal is the split with the lowest probe completion over every
 * legal split. Probes are short runs and can rank splits differently
 * from the full run, so Optimal can lose to the Heuristic on an app
 * (<ALEXNET, VISION> and <AES, QUERY> at default scale). Each app's
 * Optimal is decided once; its six variations are FIXED splits offset
 * from that decision.
 *
 * Paper shapes: Optimal ~2.3x and Heuristic ~2.1x better than MI6, with
 * the Heuristic staying within the +/-5% variation band.
 *
 * Two sweeps fan out over IRONHIDE_THREADS sweep workers like every
 * figure bench: the first runs each app's MI6, Heuristic and Optimal
 * cells, the second each app's variations at splits taken from the
 * first. `--json <path>` writes the "sweep/v2" report over both.
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
    const unsigned tiles = cfg.numTiles();
    // Fig 8 sweeps many configurations; shrink inputs to keep it quick.
    const std::vector<AppSpec> apps = standardApps(benchScale() * 0.5);

    // Percent of the machine's cores added to (+) or taken from (-)
    // the secure cluster, in table order.
    const std::vector<int> variations = {+5, -5, +10, -10, +25, -25};

    // App-major: each app owns 3 consecutive jobs, its MI6 reference,
    // Heuristic and Optimal.
    const std::size_t stride = 3;
    std::vector<SweepJob> jobs;
    jobs.reserve(apps.size() * (stride + variations.size()));
    for (const AppSpec &app : apps) {
        SweepJob job;
        job.app = app;
        job.arch = ArchKind::MI6;
        job.cfg = cfg;
        jobs.push_back(job);
        job.arch = ArchKind::IRONHIDE;
        job.ihopts.policy = SplitPolicy::HEURISTIC;
        job.tag = "Heuristic";
        jobs.push_back(job);
        job.ihopts.policy = SplitPolicy::OPTIMAL;
        job.tag = "Optimal";
        jobs.push_back(std::move(job));
    }

    printBanner("Figure 8",
                "Cluster-reconfiguration decision study: completion time "
                "normalized\nto MI6 = 100 (lower is better). Optimal is "
                "the split with the lowest\nprobe completion over every "
                "legal split; short probes can rank splits\ndifferently "
                "from the full run, so Optimal can lose to the Heuristic "
                "on\nan app. The +/-x% rows are fixed splits offset from "
                "Optimal's decision.\nPaper: Optimal ~2.3x, Heuristic "
                "~2.1x better than MI6; Heuristic within\nthe +/-5% "
                "variations.");

    std::vector<ExperimentResult> results = runBenchSweep(argc, argv, jobs);

    // App-major again: each app's variations of its Optimal split, in
    // table order, after all the first sweep's jobs.
    const ReallocPredictor pred(2, tiles - 2);
    std::vector<SweepJob> varied;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const unsigned optimal = results[i * stride + 2].decidedSplit;
        for (const int pct : variations) {
            SweepJob job;
            job.app = apps[i];
            job.arch = ArchKind::IRONHIDE;
            job.cfg = cfg;
            job.ihopts.policy = SplitPolicy::FIXED;
            job.ihopts.fixedSplit = pred.withVariation(optimal, pct, tiles);
            job.tag = strprintf("%+d%%", pct);
            varied.push_back(std::move(job));
        }
    }
    const std::vector<ExperimentResult> varied_results =
        runBenchSweep(argc, argv, varied);
    jobs.insert(jobs.end(), varied.begin(), varied.end());
    results.insert(results.end(), varied_results.begin(),
                   varied_results.end());

    Table table({"configuration", "normalized completion (MI6=100)",
                 "speedup vs MI6"});
    table.addRow({"MI6", "100.0", "1.00x"});
    // One row per IRONHIDE configuration, named by its tag: app i's
    // cell is results[first + i * step].
    const auto addRow = [&](std::size_t first, std::size_t step) {
        std::vector<double> norm;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const double mi6 = results[i * stride].run.completionMs();
            norm.push_back(results[first + i * step].run.completionMs() /
                           mi6 * 100.0);
        }
        const double g = geomean(norm);
        table.addRow({jobs[first].tag, Table::num(g, 1),
                      Table::num(100.0 / g) + "x"});
    };
    addRow(1, stride);
    addRow(2, stride);
    for (std::size_t v = 0; v < variations.size(); ++v)
        addRow(apps.size() * stride + v, variations.size());
    table.print();

    maybeWriteJsonReport(argc, argv, "fig8_heuristic", jobs, results);
    return 0;
}
