/**
 * @file
 * Ablation: TLB geometry sensitivity (associativity x size).
 *
 * The simulator models a set-associative TLB (SysConfig::tlbWays,
 * 0 = fully associative — the paper's configuration), but until this
 * ablation no paper-style experiment exercised the set-associative
 * geometries outside unit tests. The sweep runs a TLB-pressure-diverse
 * app subset under MI6 and IRONHIDE across the cross product of TLB
 * sizes (16/32/64 entries, the tlbEntries dimension of SweepGrid) and
 * associativities (fully-associative, 8-way, 4-way; the tlbWays
 * dimension), reporting completion time and miss rates per geometry.
 * Expected shape: the paper's conclusions are insensitive to realistic
 * TLB hardware — conflict misses in a 4/8-way TLB barely move
 * completion at any size, while capacity (entry count) is the axis
 * that actually shifts miss rates — which this bench makes checkable
 * instead of assumed.
 *
 * `--json <path>` writes the standard sweep report.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

int
main(int argc, char **argv)
{
    const SysConfig cfg = benchConfig();
    const double scale = benchScale() * 0.5;
    // One app per working-set flavour: graph (pointer-chasing, many
    // pages), convnet (streaming reuse), OS-level (kernel-style churn).
    const std::vector<AppSpec> apps = {findApp("<SSSP, GRAPH>", scale),
                                       findApp("<ALEXNET, VISION>", scale),
                                       findApp("<MEMCACHED, OS>", scale)};

    // Sizes outside, ways inside: every entry count expands into the
    // three associativities, so each group of 3 rows shares a size and
    // leads with its fully-associative reference.
    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(cfg)
            .apps(apps)
            .archs({ArchKind::MI6, ArchKind::IRONHIDE})
            .tlbEntries({16, 32, 64})
            .tlbWays({0, 8, 4})
            .jobs();

    printBanner("Ablation — TLB geometry",
                "Completion and miss rates over TLB size (16/32/64 "
                "entries) x associativity\n(fully-associative vs 8-way vs "
                "4-way): does realistic TLB hardware change\nthe paper's "
                "story?");

    const std::vector<ExperimentResult> results =
        runBenchSweep(argc, argv, jobs);

    constexpr std::size_t WAYS = 3;          // geometries per size
    constexpr std::size_t GROUP = 3 * WAYS;  // rows per (app, arch)

    Table table({"application", "arch", "tlb", "completion(ms)",
                 "l1 miss", "l2 miss"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ExperimentResult &r = results[i];
        table.addRow({r.app, r.arch, jobs[i].tag,
                      Table::num(r.run.completionMs(), 3),
                      Table::pct(r.run.l1MissRate),
                      Table::pct(r.run.l2MissRate)});
        if (i % GROUP == GROUP - 1)
            table.addSeparator();
    }
    table.print();

    // Headline 1: the single worst completion delta of any
    // set-associative geometry against its same-size fully-associative
    // reference, across all (app, arch, size) triples — the
    // associativity axis should be noise.
    double worst_assoc = 0.0;
    for (std::size_t i = 0; i < jobs.size(); i += WAYS) {
        const double fa = results[i].run.completionMs();
        for (std::size_t k = 1; k < WAYS; ++k) {
            const double d =
                safeDiv(results[i + k].run.completionMs() - fa, fa);
            if (d > worst_assoc)
                worst_assoc = d;
        }
    }
    // Headline 2: the capacity axis — worst completion penalty of the
    // smallest (16-entry) against the largest (64-entry) TLB at
    // fully-associative geometry, per (app, arch) group. This is the
    // axis expected to actually move.
    double worst_size = 0.0;
    for (std::size_t i = 0; i + GROUP <= jobs.size(); i += GROUP) {
        const double small = results[i].run.completionMs();
        const double large = results[i + 2 * WAYS].run.completionMs();
        const double d = safeDiv(small - large, large);
        if (d > worst_size)
            worst_size = d;
    }
    std::printf("\nWorst set-associative completion penalty vs "
                "same-size fully-associative: %.2f%%\n"
                "Worst 16-entry completion penalty vs 64-entry "
                "(fully-associative): %.2f%%\n",
                worst_assoc * 100.0, worst_size * 100.0);

    maybeWriteJsonReport(argc, argv, "abl_tlb", jobs, results);
    return 0;
}
