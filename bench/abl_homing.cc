/**
 * @file
 * Ablation A2 (design choice, Section II/IV): hash-for-homing vs local
 * homing for the distributed shared L2.
 *
 * Hash-for-homing spreads every process's lines over all 64 slices —
 * great load balance, but the secure process's footprint lands in
 * slices an attacker can probe, and packets roam the whole mesh. Local
 * homing (what MI6/IRONHIDE require) confines each process's pages to
 * its own slice partition. This ablation runs the same application both
 * ways and reports the leak surface (L2 slices holding secure-owned
 * lines) and the performance cost/benefit.
 *
 * The (app x policy) grid fans out over IRONHIDE_THREADS sweep
 * workers like the figure benches, and `--json <path>`
 * writes a "BENCH_homing/v1" report. Each cell is a pure function of
 * (app, policy, config), so the report bytes are identical at any
 * worker count.
 */

#include <cstdio>
#include <vector>

#include "core/insecure.hh"
#include "core/mi6.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

namespace
{

struct HomingJob
{
    AppSpec app;
    bool localHoming = false;

    const char *policy() const
    {
        return localHoming ? "local homing" : "hash-for-homing";
    }
};

struct HomingResult
{
    double completionMs = 0.0;
    unsigned slicesWithSecureData = 0;
    double l2Miss = 0.0;
};

HomingResult
runOne(const AppSpec &spec, const SysConfig &cfg, bool local_homing)
{
    System sys(cfg);
    // Use the insecure substrate (no purges) so the homing policy is the
    // only variable; override homing after configuration.
    InsecureBaseline model(sys);
    InteractiveApp app(sys, model, spec);
    Process &sec = app.secureProc();
    Process &ins = app.insecureProc();
    if (local_homing) {
        const unsigned half = sys.numTiles() / 2;
        sec.space().setHomingMode(HomingMode::LOCAL_HOMING);
        sec.space().setAllowedSlices(sys.prefixTiles(half));
        ins.space().setHomingMode(HomingMode::LOCAL_HOMING);
        ins.space().setAllowedSlices(sys.suffixTiles(half));
    }
    const RunResult r = app.run();

    unsigned slices = 0;
    for (CoreId s = 0; s < sys.numTiles(); ++s) {
        if (sys.mem().l2(s).validLinesOf(Domain::SECURE) > 0)
            ++slices;
    }
    return {r.completionMs(), slices, r.l2MissRate};
}

std::string
homingToJson(const std::vector<HomingJob> &jobs,
             const std::vector<HomingResult> &results, unsigned slices)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("BENCH_homing/v1");
    w.key("bench").value("abl_homing");
    w.key("l2_slices").value(slices);
    w.key("results").beginArray();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const HomingResult &r = results[i];
        w.beginObject();
        w.key("app").value(jobs[i].app.name);
        w.key("policy").value(jobs[i].policy());
        w.key("completion_ms").value(r.completionMs);
        w.key("slices_with_secure_lines")
            .value(std::uint64_t{r.slicesWithSecureData});
        w.key("l2_miss_rate").value(r.l2Miss);
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
    printBanner("Ablation A2 — L2 homing policy",
                "Hash-for-homing spreads secure state across the whole "
                "LLC (probe-able\nby a co-located attacker); local "
                "homing confines it to the partition.");

    const SysConfig cfg = benchConfig();
    const double scale = benchScale() * 0.5;
    const unsigned slices = cfg.meshWidth * cfg.meshHeight;

    // App-major, hash-for-homing before local homing — the row order of
    // the table below.
    std::vector<HomingJob> jobs;
    for (const char *name :
         {"<PR, GRAPH>", "<AES, QUERY>", "<MEMCACHED, OS>"}) {
        const AppSpec spec = findApp(name, scale);
        jobs.push_back({spec, false});
        jobs.push_back({spec, true});
    }

    std::vector<HomingResult> results(jobs.size());
    parallelForIndex(jobs.size(), knobWorkers(Knob::THREADS),
                     [&](std::size_t i) {
                         results[i] =
                             runOne(jobs[i].app, cfg, jobs[i].localHoming);
                     });

    Table table({"application", "policy", "completion(ms)",
                 "slices w/ secure lines", "L2 miss"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const HomingResult &r = results[i];
        table.addRow({jobs[i].app.name, jobs[i].policy(),
                      Table::num(r.completionMs, 3),
                      strprintf("%u / %u", r.slicesWithSecureData,
                                slices),
                      Table::pct(r.l2Miss)});
        if (i % 2 == 1)
            table.addSeparator();
    }
    table.print();
    std::printf("\nLocal homing confines secure lines to the secure "
                "partition (a prerequisite\nfor strong isolation); "
                "hash-for-homing spreads them machine-wide.\n");

    if (json_path) {
        writeTextFile(json_path,
                      homingToJson(jobs, results, slices) + "\n");
        std::printf("wrote JSON report: %s\n", json_path);
    }
    return 0;
}
