/**
 * @file
 * Regenerates Figure 7: private L1 (a) and shared L2 (b) cache miss
 * rates of every interactive application under MI6 and IRONHIDE.
 *
 * Paper shapes: IRONHIDE improves L1 miss rates by up to ~5.9x (MI6
 * thrashes the L1s by purging them at every interaction); L2 miss rates
 * improve up to ~2x through load-balanced slice allocation, with
 * <TC, GRAPH> and <LIGHTTPD, OS> as exceptions where the asymmetric
 * allocation makes IRONHIDE's L2 slightly worse.
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

    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(benchConfig())
            .apps(apps)
            .archs({ArchKind::MI6, ArchKind::IRONHIDE})
            .jobs();

    printBanner("Figure 7",
                "Private L1 (a) and shared L2 (b) miss rates, MI6 vs "
                "IRONHIDE.\nPaper: L1 improves up to ~5.9x under "
                "IRONHIDE; L2 up to ~2x, with\n<TC, GRAPH> and "
                "<LIGHTTPD, OS> as exceptions.");

    const std::vector<ExperimentResult> results =
        runBenchSweep(argc, argv, jobs);

    Table table({"application", "L1 MI6", "L1 IRONHIDE", "L1 gain",
                 "L2 MI6", "L2 IRONHIDE", "L2 gain"});
    std::vector<double> l1_mi6, l1_ih, l2_mi6, l2_ih;

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const AppSpec &app = apps[i];
        const ExperimentResult &mi6 = results[2 * i];
        const ExperimentResult &ih = results[2 * i + 1];
        table.addRow({app.name, Table::pct(mi6.run.l1MissRate),
                      Table::pct(ih.run.l1MissRate),
                      Table::num(safeDiv(mi6.run.l1MissRate,
                                         ih.run.l1MissRate)) + "x",
                      Table::pct(mi6.run.l2MissRate),
                      Table::pct(ih.run.l2MissRate),
                      Table::num(safeDiv(mi6.run.l2MissRate,
                                         ih.run.l2MissRate)) + "x"});
        l1_mi6.push_back(std::max(1e-6, mi6.run.l1MissRate));
        l1_ih.push_back(std::max(1e-6, ih.run.l1MissRate));
        l2_mi6.push_back(std::max(1e-6, mi6.run.l2MissRate));
        l2_ih.push_back(std::max(1e-6, ih.run.l2MissRate));
    }
    table.addSeparator();
    table.addRow({"geomean", Table::pct(geomean(l1_mi6)),
                  Table::pct(geomean(l1_ih)),
                  Table::num(geomean(l1_mi6) / geomean(l1_ih)) + "x",
                  Table::pct(geomean(l2_mi6)), Table::pct(geomean(l2_ih)),
                  Table::num(geomean(l2_mi6) / geomean(l2_ih)) + "x"});
    table.print();

    maybeWriteJsonReport(argc, argv, "fig7_missrates", jobs, results);
    return 0;
}
