/**
 * @file
 * Simulator-performance smoke benchmark: times a fixed mini-sweep (the
 * Figure 6 grid — every standard application under SGX-like, MI6 and
 * IRONHIDE — at a fixed reduced scale) and reports wall-clock speed
 * alongside a determinism checksum.
 *
 * Unlike the figure benches, the quantity of interest here is *host*
 * time, not simulated time: the bench exists so every hot-path PR
 * records a before/after number and CI keeps a perf trajectory. The
 * workload is pinned (scale, thread count and job grid are fixed
 * defaults) so numbers are comparable across commits on the same
 * machine.
 *
 * `--json <path>` writes a machine-readable report (BENCH_perf.json
 * schema, see README "Performance"):
 *
 *   {
 *     "schema": "BENCH_perf/v1",
 *     "bench": "perf_smoke",
 *     "scale": ..., "threads": ..., "domains": ..., "repeats": ...,
 *     "jobs": ...,
 *     "wall_ms": ..., "wall_ms_best": ..., "jobs_per_sec": ...,
 *     "sim_completion_cycles_total": ...,  // determinism checksum
 *     "sim_instructions_total": ...,
 *     "per_arch": [ {"arch": ..., "completion_cycles": ...}, ... ]
 *   }
 *
 * `--baseline <path>` turns the bench into a regression gate: the given
 * BENCH_perf/v1 report (normally the committed bench/perf_baseline.json,
 * regenerated deliberately like the stats golden) is compared against
 * this run, and the process exits non-zero when
 *
 *   - wall_ms_best regresses by more than the tolerance (default 15%,
 *     override with IRONHIDE_PERF_TOLERANCE, e.g. 0.25), or
 *   - the determinism checksum differs (a stats-purity break, gated
 *     with zero tolerance; a baseline without a numeric
 *     sim_completion_cycles_total is a fatal error, never a pass).
 *
 * `--no-slower-than <path>` gates against a *sibling* report from the
 * same machine and commit instead of the committed baseline: this run's
 * wall_ms_best must not exceed the sibling's by more than the same
 * tolerance. CI uses it to require the IRONHIDE_DOMAINS=4 leg to be no
 * slower than the serial leg it just ran — a same-runner comparison,
 * so it needs no cross-machine baseline and no inflated tolerance.
 * Composes with --baseline (the checksum gate still comes from there).
 *
 * Knobs: IRONHIDE_PERF_SCALE (default 0.1), IRONHIDE_PERF_REPEATS
 * (default 1, best-of-N), IRONHIDE_THREADS (default 1 — single-run
 * speed is the quantity under test), IRONHIDE_PERF_TOLERANCE (gate
 * slack, default 0.15), IRONHIDE_DOMAINS (intra-run domain workers,
 * default 1 — wall time only, the checksum must not move).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"

using namespace ih;

namespace
{

const char *
flagPath(int argc, char **argv, const char *flag)
{
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            if (i + 1 >= argc)
                fatal("%s requires a file argument", flag);
            path = argv[i + 1];
        }
    }
    if (path) {
        // Probe readability now so a bad path fails before the sweep,
        // not after minutes of runs (mirrors jsonReportPath).
        std::FILE *f = std::fopen(path, "rb");
        if (!f)
            fatal("cannot open %s file '%s' for reading", flag, path);
        std::fclose(f);
    }
    return path;
}

/**
 * Append one markdown line per gated run to the GitHub Actions step
 * summary (no-op outside CI): the measured-vs-baseline delta in ms and
 * %, so the perf trajectory and the gate tolerance have visible history
 * in the job UI without digging through artifacts.
 */
void
appendStepSummary(unsigned domains, double wall_ms_best, double base_wall,
                  double delta_ms, double delta_pct, double tolerance,
                  bool checksum_ok, int rc)
{
    const char *summary = std::getenv("GITHUB_STEP_SUMMARY");
    if (!summary || !*summary)
        return;
    std::FILE *f = std::fopen(summary, "a");
    if (!f) {
        warn("cannot append to GITHUB_STEP_SUMMARY '%s'", summary);
        return;
    }
    // The domains count labels the leg: the serial and the
    // IRONHIDE_DOMAINS=N gate runs land in the same step summary, and
    // the parallel leg's wall history is what decides when its gate
    // gets promoted from advisory (see ROADMAP.md).
    std::fprintf(
        f,
        "### perf_smoke gate (domains=%u): %s\n\n"
        "| domains | wall_ms_best | baseline | delta | tolerance "
        "| checksum |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| %u | %.1f ms | %.1f ms | %+.1f ms (%+.1f%%) | +%.0f%% "
        "| %s |\n\n",
        domains, rc == 0 ? "pass" : "FAIL", domains, wall_ms_best,
        base_wall, delta_ms, delta_pct, tolerance * 100.0,
        checksum_ok ? "ok" : "DRIFTED");
    std::fclose(f);
}

/**
 * The regression gate: compare this run against the baseline report.
 * @return process exit code (0 pass, 1 fail).
 */
int
gateAgainstBaseline(const char *path, unsigned domains,
                    double wall_ms_best, std::uint64_t completion_total)
{
    const std::string base = readTextFile(path);
    double base_wall = 0.0;
    if (!jsonNumberField(base, "wall_ms_best", base_wall) ||
        base_wall <= 0.0) {
        fatal("baseline '%s' has no usable wall_ms_best", path);
    }
    const double tolerance = knobReal(Knob::PERF_TOLERANCE);
    const double limit = base_wall * (1.0 + tolerance);
    const double delta_ms = wall_ms_best - base_wall;
    const double delta_pct = delta_ms / base_wall * 100.0;

    // The checksum is the zero-tolerance half of the gate: a baseline
    // that cannot supply it must stop the run, not pass it unchecked.
    double base_checksum = 0.0;
    if (!jsonNumberField(base, "sim_completion_cycles_total",
                         base_checksum)) {
        fatal("baseline '%s' has no numeric sim_completion_cycles_total",
              path);
    }
    int rc = 0;
    bool checksum_ok = true;
    if (static_cast<std::uint64_t>(base_checksum) != completion_total) {
        warn("perf gate: determinism checksum %llu != baseline %llu — "
             "stats purity broke (regenerate the baseline only for an "
             "intentional modeling change)",
             static_cast<unsigned long long>(completion_total),
             static_cast<unsigned long long>(base_checksum));
        checksum_ok = false;
        rc = 1;
    }
    if (wall_ms_best > limit) {
        warn("perf gate: wall_ms_best %.1f exceeds %.1f (baseline %.1f "
             "+%.0f%%) — perf regression",
             wall_ms_best, limit, base_wall, tolerance * 100.0);
        rc = 1;
    }
    std::printf("perf gate: %s (wall_ms_best %.1f vs baseline %.1f: "
                "delta %+.1f ms / %+.1f%%, limit %.1f)\n",
                rc == 0 ? "pass" : "FAIL", wall_ms_best, base_wall,
                delta_ms, delta_pct, limit);
    appendStepSummary(domains, wall_ms_best, base_wall, delta_ms,
                      delta_pct, tolerance, checksum_ok, rc);
    return rc;
}

/**
 * The sibling gate (--no-slower-than): this run must not be slower
 * than the referenced same-machine report by more than the tolerance.
 * @return process exit code (0 pass, 1 fail).
 */
int
gateAgainstSibling(const char *path, double wall_ms_best)
{
    const std::string sibling = readTextFile(path);
    double sibling_wall = 0.0;
    if (!jsonNumberField(sibling, "wall_ms_best", sibling_wall) ||
        sibling_wall <= 0.0) {
        fatal("sibling report '%s' has no usable wall_ms_best", path);
    }
    const double tolerance = knobReal(Knob::PERF_TOLERANCE);
    const double limit = sibling_wall * (1.0 + tolerance);
    const int rc = wall_ms_best > limit ? 1 : 0;
    if (rc != 0) {
        warn("perf gate: wall_ms_best %.1f exceeds %.1f (sibling %.1f "
             "+%.0f%%) — this configuration is slower than the sibling "
             "leg on the same machine",
             wall_ms_best, limit, sibling_wall, tolerance * 100.0);
    }
    std::printf("sibling gate: %s (wall_ms_best %.1f vs sibling %.1f, "
                "limit %.1f)\n",
                rc == 0 ? "pass" : "FAIL", wall_ms_best, sibling_wall,
                limit);
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = jsonReportPath(argc, argv);
    const char *baseline_path = flagPath(argc, argv, "--baseline");
    const char *sibling_path = flagPath(argc, argv, "--no-slower-than");
    printBanner("perf_smoke",
                "Times a fixed mini-sweep (fig6 grid, reduced scale) and "
                "reports\nhost wall-clock speed plus a determinism "
                "checksum. Simulator-\nperformance trajectory, not a "
                "paper figure.");

    const double scale = knobReal(Knob::PERF_SCALE);
    const auto repeats =
        static_cast<unsigned>(knobCount(Knob::PERF_REPEATS));
    // IRONHIDE_THREADS as every other bench reads it, but here 0/unset
    // pins to 1 worker: single-run speed is the quantity under test,
    // not sweep throughput.
    auto threads = static_cast<unsigned>(knobCount(Knob::THREADS));
    if (threads == 0)
        threads = 1;
    // Intra-run domain workers (IRONHIDE_DOMAINS, default 1 = serial).
    // The knob only moves wall time; the determinism checksum must be
    // byte-identical at every value — CI runs the gate at 1 and 4 and
    // fails on any drift.
    const SysConfig cfg = benchConfig();
    const unsigned domains = effectiveDomains(cfg);

    const std::vector<SweepJob> jobs =
        SweepGrid()
            .config(cfg)
            .apps(standardApps(scale))
            .archs({ArchKind::SGX_LIKE, ArchKind::MI6, ArchKind::IRONHIDE})
            .jobs();

    // The benches' sweep path, inline: no shard, journal or faults.
    SweepRunOptions opts;
    opts.threads = threads;

    using Clock = std::chrono::steady_clock;
    std::vector<ExperimentResult> results;
    double wall_ms_sum = 0.0;
    double wall_ms_best = 0.0;
    for (unsigned rep = 0; rep < repeats; ++rep) {
        const auto t0 = Clock::now();
        SweepOutcome out =
            runFaultTolerantSweep("perf_smoke", jobs, opts, FaultPlan());
        const auto t1 = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        wall_ms_sum += ms;
        if (rep == 0 || ms < wall_ms_best)
            wall_ms_best = ms;
        // A failed cell's result is default-initialised: never let it
        // into the checksum.
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (!out.cells[i].ok())
                fatal("perf_smoke job %zu failed: %s", i,
                      out.cells[i].error.c_str());
        results = std::move(out.results);
    }
    const double wall_ms = wall_ms_sum / repeats;

    // Determinism checksum: total simulated completion cycles and
    // instructions over the grid. Identical inputs must reproduce these
    // exactly on any machine, any thread count, any commit that claims
    // stats purity.
    std::uint64_t completion_total = 0;
    std::uint64_t instructions_total = 0;
    std::map<std::string, std::uint64_t> per_arch;
    for (const ExperimentResult &r : results) {
        completion_total += r.run.completion;
        instructions_total += r.run.instructions;
        per_arch[r.arch] += r.run.completion;
    }

    Table table({"metric", "value"});
    table.addRow({"jobs", strprintf("%zu", jobs.size())});
    table.addRow({"scale", Table::num(scale, 3)});
    table.addRow({"threads", strprintf("%u", threads)});
    table.addRow({"domains", strprintf("%u", domains)});
    table.addRow({"repeats", strprintf("%u", repeats)});
    table.addRow({"wall(ms) mean", Table::num(wall_ms, 1)});
    table.addRow({"wall(ms) best", Table::num(wall_ms_best, 1)});
    table.addRow(
        {"jobs/s", Table::num(jobs.size() / (wall_ms / 1000.0), 2)});
    table.addRow({"sim cycles (checksum)",
                  strprintf("%llu", static_cast<unsigned long long>(
                                        completion_total))});
    table.print();

    if (json_path) {
        JsonWriter w;
        w.beginObject();
        w.key("schema").value("BENCH_perf/v1");
        w.key("bench").value("perf_smoke");
        w.key("scale").value(scale);
        w.key("threads").value(threads);
        w.key("domains").value(domains);
        w.key("repeats").value(repeats);
        w.key("jobs").value(std::uint64_t{jobs.size()});
        w.key("wall_ms").value(wall_ms);
        w.key("wall_ms_best").value(wall_ms_best);
        w.key("jobs_per_sec").value(jobs.size() / (wall_ms / 1000.0));
        w.key("sim_completion_cycles_total").value(completion_total);
        w.key("sim_instructions_total").value(instructions_total);
        w.key("per_arch").beginArray();
        for (const auto &[arch, cycles] : per_arch) {
            w.beginObject();
            w.key("arch").value(arch);
            w.key("completion_cycles").value(cycles);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        writeTextFile(json_path, w.str() + "\n");
        std::printf("wrote JSON report: %s\n", json_path);
    }
    int rc = 0;
    if (baseline_path)
        rc |= gateAgainstBaseline(baseline_path, domains, wall_ms_best,
                                  completion_total);
    if (sibling_path)
        rc |= gateAgainstSibling(sibling_path, wall_ms_best);
    return rc;
}
