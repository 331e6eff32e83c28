/**
 * @file
 * Ablation A3 (design choice, Section III-B3): the value and cost of
 * dynamic hardware isolation.
 *
 * Compares IRONHIDE with no reconfiguration (static 32/32), the default
 * single heuristic reconfiguration, and the Optimal oracle; reports the
 * number of observable scheduling events (the leakage bound) alongside
 * the performance. Then sweeps the per-page re-homing cost to show the
 * one-time overhead stays negligible even if page migration were 8x
 * more expensive — supporting the paper's "~15 ms one-time" claim.
 */

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

static std::vector<SweepJob>
buildJobs(const SysConfig &cfg, const std::vector<AppSpec> &apps,
          const std::vector<std::pair<const char *, SplitPolicy>> &policies,
          const AppSpec &sens_app, const std::vector<unsigned> &mults)
{
    // Part 1 as a regular (apps x policies) grid...
    SweepGrid grid;
    grid.config(cfg).apps(apps).arch(ArchKind::IRONHIDE);
    for (const auto &[label, policy] : policies) {
        IronhideOptions opts;
        opts.policy = policy;
        grid.options(opts, label);
    }
    std::vector<SweepJob> jobs = grid.jobs();

    // ...plus the irregular re-homing sensitivity cells appended as
    // hand-built jobs (per-job SysConfig), all run by one parallel pass.
    for (const unsigned mult : mults) {
        SweepJob job;
        job.app = sens_app;
        job.arch = ArchKind::IRONHIDE;
        job.cfg = cfg;
        job.cfg.rehomePerPage = cfg.rehomePerPage * mult;
        job.tag = strprintf("rehome x%u", mult);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

int
main(int argc, char **argv)
{
    const SysConfig cfg = benchConfig();
    const double scale = benchScale() * 0.5;
    const std::vector<AppSpec> apps = {findApp("<TC, GRAPH>", scale),
                                       findApp("<AES, QUERY>", scale),
                                       findApp("<MEMCACHED, OS>", scale)};
    const std::vector<std::pair<const char *, SplitPolicy>> policies = {
        {"static 32/32", SplitPolicy::STATIC_HALF},
        {"heuristic x1", SplitPolicy::HEURISTIC},
        {"optimal x1", SplitPolicy::OPTIMAL}};
    const AppSpec sens_app = findApp("<MEMCACHED, OS>", scale);
    const std::vector<unsigned> mults = {1u, 4u, 8u};
    const std::vector<SweepJob> jobs =
        buildJobs(cfg, apps, policies, sens_app, mults);
    const std::size_t grid_jobs = apps.size() * policies.size();

    printBanner("Ablation A3 — dynamic hardware isolation",
                "Reconfiguration policy vs performance and scheduling-"
                "leakage events,\nand sensitivity to the page re-homing "
                "cost.");

    const std::vector<ExperimentResult> results =
        runBenchSweep(argc, argv, jobs);

    Table table({"application", "policy", "completion(ms)",
                 "reconfig events", "one-time ovh(ms)"});
    for (std::size_t i = 0; i < grid_jobs; ++i) {
        const auto &[label, policy] = policies[i % policies.size()];
        const ExperimentResult &r = results[i];
        table.addRow({r.app, label, Table::num(r.run.completionMs(), 3),
                      policy == SplitPolicy::STATIC_HALF ? "0" : "1",
                      Table::num(cyclesToMs(r.run.reconfigCycles), 3)});
        if (i % policies.size() == policies.size() - 1)
            table.addSeparator();
    }
    table.print();

    // Sensitivity: how expensive could page migration get before the
    // one-time event mattered?
    Table sens({"rehome cost (cycles/page)", "completion(ms)",
                "one-time ovh(ms)", "ovh share"});
    for (std::size_t i = 0; i < mults.size(); ++i) {
        const SweepJob &job = jobs[grid_jobs + i];
        const ExperimentResult &r = results[grid_jobs + i];
        sens.addRow(
            {strprintf("%llu", (unsigned long long)job.cfg.rehomePerPage),
             Table::num(r.run.completionMs(), 3),
             Table::num(cyclesToMs(r.run.reconfigCycles), 3),
             Table::pct(cyclesToMs(r.run.reconfigCycles) /
                        r.run.completionMs())});
    }
    std::printf("\nRe-homing cost sensitivity (%s):\n",
                sens_app.name.c_str());
    sens.print();

    maybeWriteJsonReport(argc, argv, "abl_reconfig", jobs, results);
    return 0;
}
