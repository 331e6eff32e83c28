/**
 * @file
 * Regenerates Figure 1(a): geometric-mean completion time of the
 * SGX-like, multicore-MI6 and IRONHIDE architectures across all nine
 * interactive applications, normalized to the insecure baseline.
 *
 * Paper values: SGX ~1.33x, MI6 ~2.25x, IRONHIDE best-of-secure (~20%
 * better than SGX, ~2.1x better than MI6).
 *
 * The (app x arch) grid fans out over IRONHIDE_THREADS sweep workers
 * like every figure bench, and `--json <path>` writes the "sweep/v2"
 * report.
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
    const std::vector<AppSpec> apps = standardApps(benchScale());

    // App-major, then arch — each app's four runs sit at
    // results[app*4 + {0,1,2,3}] = {insecure, sgx, mi6, ironhide}.
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(cfg)
            .apps(apps)
            .archs({ArchKind::INSECURE, ArchKind::SGX_LIKE, ArchKind::MI6,
                    ArchKind::IRONHIDE})
            .jobs();

    printBanner("Figure 1(a)",
                "Normalized geomean completion time of secure processor "
                "architectures\n(insecure baseline = 1.0). Paper: SGX "
                "~1.33x, MI6 ~2.25x, IRONHIDE lowest.");

    const std::vector<ExperimentResult> results =
        runBenchSweep(argc, argv, jobs);

    constexpr std::size_t kArchs = 4;
    std::vector<std::vector<double>> normalized(kArchs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double baseline = static_cast<double>(
            results[i * kArchs + 0].run.completion);
        for (std::size_t k = 0; k < kArchs; ++k)
            normalized[k].push_back(
                static_cast<double>(results[i * kArchs + k].run.completion) /
                baseline);
    }

    Table table({"architecture", "norm. geomean completion", "paper"});
    table.addRow({"insecure", Table::num(geomean(normalized[0])), "1.00"});
    table.addRow({"sgx", Table::num(geomean(normalized[1])), "~1.33"});
    table.addRow({"mi6", Table::num(geomean(normalized[2])), "~2.25"});
    table.addRow({"ironhide", Table::num(geomean(normalized[3])),
                  "lowest of the secure designs"});
    table.print();

    maybeWriteJsonReport(argc, argv, "fig1a_overview", jobs, results);
    return 0;
}
