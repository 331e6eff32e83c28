/**
 * @file
 * Regenerates the methodology/analysis numbers the paper reports in
 * prose (Sections IV-B and V-B): the measured interactivity rate of
 * each application class (secure entry/exit events per second), the MI6
 * purge cost per interaction event, the IRONHIDE one-time
 * reconfiguration overhead, and the SGX entry/exit constant.
 *
 * Paper values: ~400 events/s user-level, ~220K events/s OS-level
 * (measured on the unpartitioned baseline); ~0.19 ms MI6 purge per
 * event; ~15 ms one-time IRONHIDE overhead; 5 us per SGX ECALL/OCALL.
 * Our machine and inputs are scaled ~10x down, so absolute rates are
 * proportionally higher and purge costs proportionally lower; the
 * user-vs-OS contrast (orders of magnitude) is the reproduced shape.
 *
 * The (app x {baseline, MI6, IRONHIDE}) grid fans out over
 * IRONHIDE_THREADS sweep workers like every figure bench, and
 * `--json <path>` writes the standard sweep report.
 */

#include <cstdio>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

int
main(int argc, char **argv)
{
    const SysConfig cfg = benchConfig();
    const std::vector<AppSpec> apps = standardApps(benchScale());

    // App-major, then arch — each app's three runs sit at
    // results[app*3 + {0,1,2}] = {baseline, MI6, IRONHIDE}.
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(cfg)
            .apps(apps)
            .archs({ArchKind::INSECURE, ArchKind::MI6, ArchKind::IRONHIDE})
            .jobs();

    printBanner("Interactivity & purge-cost table (prose, §IV-B/§V-B)",
                "Measured interactivity rates and per-event transition "
                "costs.");

    const std::vector<ExperimentResult> results =
        runBenchSweep(argc, argv, jobs);

    Table table({"application", "class", "baseline events/s",
                 "MI6 purge/event(us)", "IRONHIDE one-time(ms)"});

    std::vector<double> user_rate, os_rate, purge_per_event;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const AppSpec &app = apps[i];
        const ExperimentResult &base = results[i * 3 + 0];
        const ExperimentResult &mi6 = results[i * 3 + 1];
        const ExperimentResult &ih = results[i * 3 + 2];

        const double per_event =
            mi6.run.transitions
                ? cyclesToUs(mi6.run.purgeCycles) /
                      static_cast<double>(mi6.run.transitions)
                : 0.0;
        purge_per_event.push_back(per_event);
        (app.osLevel ? os_rate : user_rate)
            .push_back(base.run.interactivityPerSec);

        table.addRow({app.name, app.osLevel ? "OS" : "user",
                      Table::num(base.run.interactivityPerSec, 0),
                      Table::num(per_event, 2),
                      Table::num(cyclesToMs(ih.run.reconfigCycles), 3)});
    }
    table.addSeparator();
    table.print();

    std::printf(
        "\ngeomean interactivity: user-level %.0f events/s, OS-level "
        "%.0f events/s\n  (paper: ~400/s vs ~220K/s on the full-size "
        "machine; the ~100-1000x class gap is the shape)\n",
        geomean(user_rate), geomean(os_rate));
    std::printf("geomean MI6 purge per event: %.2f us  (paper: ~190 us "
                "on the full-size Tile-Gx72)\n",
                geomean(purge_per_event));
    std::printf("SGX entry/exit constant: %.1f us per event (paper: "
                "2.5-5 us, modelled at 5 us)\n",
                cyclesToUs(cfg.sgxEnterExitCycles));

    maybeWriteJsonReport(argc, argv, "tab_interactivity", jobs, results);
    return 0;
}
