/**
 * @file
 * Regenerates Figure 6: per-application completion times of the
 * SGX-like, MI6 and IRONHIDE architectures, split into process
 * execution (compute) and enclave entry/exit overheads (SGX constant
 * costs / MI6 purging / IRONHIDE one-time reconfiguration), plus the
 * number of cores the re-allocation predictor gives the secure cluster
 * (the markers of the paper's figure), and user-level / OS-level / all
 * geomean summaries.
 *
 * Paper shapes: MI6 purging is ~47% of its completion; IRONHIDE is
 * ~2.1x faster than MI6 overall (~32% user-level, ~3.1x OS-level) and
 * ~20% faster than SGX; the purge component shrinks by orders of
 * magnitude (paper: ~706x).
 */

#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

int
main(int argc, char **argv)
{
    const std::vector<AppSpec> apps = standardApps(benchScale());

    // One job per (app, arch) cell, enumerated app-major so the rows
    // below read exactly like the paper's figure; the runner executes
    // them in parallel and hands the results back in job order.
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(benchConfig())
            .apps(apps)
            .archs({ArchKind::SGX_LIKE, ArchKind::MI6, ArchKind::IRONHIDE})
            .jobs();

    printBanner("Figure 6",
                "Completion time (ms, simulated) per interactive "
                "application,\nbroken into compute and "
                "transition/purge/reconfig overheads.\nMarkers: secure-"
                "cluster core count chosen by the predictor.");

    const std::vector<ExperimentResult> results =
        runBenchSweep(argc, argv, jobs);

    Table table({"application", "arch", "total(ms)", "compute(ms)",
                 "overhead(ms)", "ovh%", "secure cores"});

    struct Agg
    {
        std::vector<double> sgx, mi6, ih, mi6_over_ih, purge_ratio;
    } user, os, all;

    std::size_t next_result = 0;
    for (const AppSpec &app : apps) {
        double t_sgx = 0, t_mi6 = 0, t_ih = 0;
        double mi6_purge = 0, ih_reconf = 0;
        for (ArchKind kind :
             {ArchKind::SGX_LIKE, ArchKind::MI6, ArchKind::IRONHIDE}) {
            const ExperimentResult &r = results[next_result++];
            const double total = r.run.completionMs();
            double overhead = cyclesToMs(r.run.transitionCycles);
            if (kind == ArchKind::IRONHIDE)
                overhead = cyclesToMs(r.run.reconfigCycles);
            table.addRow(
                {app.name, r.arch, Table::num(total, 3),
                 Table::num(total - overhead, 3), Table::num(overhead, 3),
                 Table::pct(overhead / total),
                 kind == ArchKind::IRONHIDE
                     ? strprintf("%u", r.decidedSplit)
                     : "-"});
            if (kind == ArchKind::SGX_LIKE)
                t_sgx = total;
            if (kind == ArchKind::MI6) {
                t_mi6 = total;
                mi6_purge = cyclesToMs(r.run.purgeCycles);
            }
            if (kind == ArchKind::IRONHIDE) {
                t_ih = total;
                ih_reconf = cyclesToMs(r.run.reconfigCycles);
            }
        }
        table.addSeparator();

        Agg &grp = app.osLevel ? os : user;
        for (Agg *a : {&grp, &all}) {
            a->sgx.push_back(t_sgx);
            a->mi6.push_back(t_mi6);
            a->ih.push_back(t_ih);
            a->mi6_over_ih.push_back(t_mi6 / t_ih);
            if (ih_reconf > 0)
                a->purge_ratio.push_back(mi6_purge / ih_reconf);
        }
    }
    table.print();

    Table summary({"group", "IRONHIDE vs MI6", "IRONHIDE vs SGX",
                   "paper (vs MI6)"});
    auto ratio = [](const std::vector<double> &a,
                    const std::vector<double> &b) {
        return geomean(a) / geomean(b);
    };
    summary.addRow({"user-level", Table::num(ratio(user.mi6, user.ih)),
                    Table::num(ratio(user.sgx, user.ih)), "~1.32x"});
    summary.addRow({"OS-level", Table::num(ratio(os.mi6, os.ih)),
                    Table::num(ratio(os.sgx, os.ih)), "~3.1x"});
    summary.addRow({"all", Table::num(ratio(all.mi6, all.ih)),
                    Table::num(ratio(all.sgx, all.ih)),
                    "~2.1x (and ~1.2x vs SGX)"});
    summary.print();

    std::printf("\nMI6 purge vs IRONHIDE one-time reconfig overhead "
                "(geomean ratio): %.0fx  (paper: ~706x)\n",
                geomean(all.purge_ratio));

    maybeWriteJsonReport(argc, argv, "fig6_completion", jobs, results);
    return 0;
}
