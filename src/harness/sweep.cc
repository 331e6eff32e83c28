#include "harness/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "harness/parallel.hh"
#include "harness/report.hh"
#include "sim/log.hh"

namespace ih
{

// --------------------------------------------------------------------------
// SweepGrid
// --------------------------------------------------------------------------

SweepGrid &
SweepGrid::config(const SysConfig &cfg)
{
    cfg_ = cfg;
    cfgSet_ = true;
    return *this;
}

SweepGrid &
SweepGrid::app(AppSpec app)
{
    apps_.push_back(std::move(app));
    return *this;
}

SweepGrid &
SweepGrid::apps(const std::vector<AppSpec> &apps)
{
    apps_.insert(apps_.end(), apps.begin(), apps.end());
    return *this;
}

SweepGrid &
SweepGrid::arch(ArchKind kind)
{
    archs_.push_back(kind);
    return *this;
}

SweepGrid &
SweepGrid::archs(std::initializer_list<ArchKind> kinds)
{
    archs_.insert(archs_.end(), kinds.begin(), kinds.end());
    return *this;
}

SweepGrid &
SweepGrid::options(const IronhideOptions &opts, std::string tag)
{
    opts_.emplace_back(opts, std::move(tag));
    return *this;
}

SweepGrid &
SweepGrid::tlbWays(std::initializer_list<unsigned> ways)
{
    tlbWays_.insert(tlbWays_.end(), ways.begin(), ways.end());
    return *this;
}

SweepGrid &
SweepGrid::tlbEntries(std::initializer_list<unsigned> entries)
{
    tlbEntries_.insert(tlbEntries_.end(), entries.begin(), entries.end());
    return *this;
}

std::vector<SweepJob>
SweepGrid::jobs() const
{
    SysConfig cfg = cfg_;
    if (!cfgSet_)
        cfg.validate();

    const std::vector<ArchKind> archs =
        archs_.empty() ? std::vector<ArchKind>{ArchKind::IRONHIDE}
                       : archs_;
    const std::vector<std::pair<IronhideOptions, std::string>> opts =
        opts_.empty()
            ? std::vector<std::pair<IronhideOptions, std::string>>{
                  {IronhideOptions{}, ""}}
            : opts_;

    // Each TLB-geometry dimension is expressed as (override, tag
    // suffix) pairs; "no dimension" is a single pass-through of the
    // base config so the loops below stay regular.
    struct TlbVariant
    {
        bool override_ = false;
        unsigned value = 0;
        std::string tag;
    };
    std::vector<TlbVariant> sizes;
    if (tlbEntries_.empty()) {
        sizes.push_back({});
    } else {
        for (unsigned e : tlbEntries_)
            sizes.push_back({true, e, strprintf("tlbe=%u", e)});
    }
    std::vector<TlbVariant> tlbs;
    if (tlbWays_.empty()) {
        tlbs.push_back({});
    } else {
        for (unsigned w : tlbWays_) {
            TlbVariant v;
            v.override_ = true;
            v.value = w;
            v.tag = w == 0 ? "tlb=fa" : strprintf("tlb=%uway", w);
            tlbs.push_back(std::move(v));
        }
    }

    const auto appendTag = [](std::string &tag, const std::string &sfx) {
        tag = tag.empty() ? sfx : tag + " " + sfx;
    };

    std::vector<SweepJob> out;
    out.reserve(apps_.size() * archs.size() * opts.size() * sizes.size() *
                tlbs.size());
    for (const AppSpec &app : apps_) {
        for (const ArchKind kind : archs) {
            for (const auto &[ihopts, tag] : opts) {
                for (const TlbVariant &size : sizes) {
                    for (const TlbVariant &tlb : tlbs) {
                        SweepJob job;
                        job.app = app;
                        job.arch = kind;
                        job.cfg = cfg;
                        job.ihopts = ihopts;
                        job.tag = tag;
                        if (size.override_) {
                            job.cfg.tlbEntries = size.value;
                            appendTag(job.tag, size.tag);
                        }
                        if (tlb.override_) {
                            job.cfg.tlbWays = tlb.value;
                            appendTag(job.tag, tlb.tag);
                        }
                        if (size.override_ || tlb.override_)
                            job.cfg.validate();
                        out.push_back(std::move(job));
                    }
                }
            }
        }
    }
    return out;
}

// --------------------------------------------------------------------------
// Summaries
// --------------------------------------------------------------------------

const ArchAggregate *
SweepSummary::find(const std::string &arch) const
{
    for (const ArchAggregate &a : byArch)
        if (a.arch == arch)
            return &a;
    return nullptr;
}

double
SweepSummary::speedup(const std::string &fast, const std::string &slow) const
{
    const ArchAggregate *f = find(fast);
    const ArchAggregate *s = find(slow);
    if (!f || !s)
        return 0.0;
    return safeDiv(s->geomeanCompletionMs, f->geomeanCompletionMs);
}

SweepSummary
summarize(const std::vector<ExperimentResult> &results)
{
    SweepSummary out;

    struct Acc
    {
        std::vector<double> completionMs, l1, l2;
        std::uint64_t secureCores = 0;
        ArchAggregate agg;
    };
    std::vector<Acc> accs; // ordered by first appearance

    for (const ExperimentResult &r : results) {
        Acc *acc = nullptr;
        for (Acc &a : accs)
            if (a.agg.arch == r.arch)
                acc = &a;
        if (!acc) {
            accs.emplace_back();
            acc = &accs.back();
            acc->agg.arch = r.arch;
        }
        ++acc->agg.jobs;
        // Clamp zero values so geomean stays meaningful (and defined —
        // geomean() rejects non-positive inputs) for degenerate cells:
        // zero completion from an empty timed region, zero rates for
        // sweeps where some cells miss never (the fig7 convention).
        acc->completionMs.push_back(
            std::max(1e-9, r.run.completionMs()));
        acc->l1.push_back(std::max(1e-6, r.run.l1MissRate));
        acc->l2.push_back(std::max(1e-6, r.run.l2MissRate));
        acc->secureCores += r.run.secureCores;
        acc->agg.totalPurgeCycles += r.run.purgeCycles;
        acc->agg.totalTransitionCycles += r.run.transitionCycles;
        acc->agg.totalReconfigCycles += r.run.reconfigCycles;

        StatGroup &g = out.stats;
        g.counter(r.arch + ".jobs").inc();
        g.counter(r.arch + ".instructions").inc(r.run.instructions);
        g.counter(r.arch + ".transitions").inc(r.run.transitions);
        g.counter(r.arch + ".purge_cycles").inc(r.run.purgeCycles);
        g.counter(r.arch + ".transition_cycles")
            .inc(r.run.transitionCycles);
        g.counter(r.arch + ".reconfig_cycles").inc(r.run.reconfigCycles);
        g.counter(r.arch + ".completion_cycles").inc(r.run.completion);
        g.counter(r.arch + ".isolation_violations")
            .inc(r.run.isolationViolations);
    }

    for (Acc &a : accs) {
        a.agg.geomeanCompletionMs = geomean(a.completionMs);
        a.agg.geomeanL1MissRate = geomean(a.l1);
        a.agg.geomeanL2MissRate = geomean(a.l2);
        a.agg.meanSecureCores =
            safeDiv(static_cast<double>(a.secureCores),
                    static_cast<double>(a.agg.jobs));
        out.byArch.push_back(a.agg);
    }
    return out;
}

// --------------------------------------------------------------------------
// JSON report
// --------------------------------------------------------------------------

namespace
{

const char *
policyName(SplitPolicy p)
{
    switch (p) {
      case SplitPolicy::HEURISTIC:
        return "heuristic";
      case SplitPolicy::OPTIMAL:
        return "optimal";
      case SplitPolicy::FIXED:
        return "fixed";
      case SplitPolicy::STATIC_HALF:
        return "static_half";
    }
    return "?";
}

} // namespace

const char *
jsonReportPath(int argc, char **argv)
{
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") != 0)
            fatal("unknown argument '%s': the only option is --json <path>",
                  argv[i]);
        if (path)
            fatal("--json given more than once");
        if (i + 1 >= argc)
            fatal("--json requires a file argument");
        path = argv[++i];
    }
    if (path)
        probeWritable(path);
    return path;
}

// --------------------------------------------------------------------------
// Running a sweep
// --------------------------------------------------------------------------

namespace
{

/** "app/arch tag": how a failing job is named. */
std::string
jobLabel(const SweepJob &job)
{
    return strprintf("%s/%s%s%s", job.app.name.c_str(), archName(job.arch),
                     job.tag.empty() ? "" : " ", job.tag.c_str());
}

} // namespace

std::vector<ExperimentResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned threads)
{
    std::vector<ExperimentResult> results(jobs.size());
    parallelForIndex(jobs.size(), threads, [&](std::size_t i) {
        const SweepJob &j = jobs[i];
        try {
            results[i] = runExperiment(j.app, j.arch, j.cfg, j.ihopts);
        } catch (const std::exception &e) {
            throw std::runtime_error(strprintf("job %zu (%s): %s", i,
                                               jobLabel(j).c_str(),
                                               e.what()));
        }
    });
    return results;
}

std::vector<ExperimentResult>
runBenchSweep(int argc, char **argv, const std::vector<SweepJob> &jobs)
{
    jsonReportPath(argc, argv); // fail-fast probe before the runs
    try {
        return runSweep(jobs, knobWorkers(Knob::THREADS));
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
}

void
runBenchCells(std::size_t n, const std::function<void(std::size_t)> &cell)
{
    try {
        parallelForIndex(n, knobWorkers(Knob::THREADS), [&](std::size_t i) {
            try {
                cell(i);
            } catch (const std::exception &e) {
                throw std::runtime_error(
                    strprintf("cell %zu: %s", i, e.what()));
            }
        });
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
}

std::string
sweepReportJson(const char *schema, const std::string &sweep_id,
                std::size_t cells, const CellWriter &identify,
                const CellWriter &body,
                const std::function<void(JsonWriter &)> &tail)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(schema);
    w.key("sweep").value(sweep_id);
    w.key("jobs").value(std::uint64_t{cells});
    w.key("complete").value(true);

    w.key("results").beginArray();
    for (std::size_t i = 0; i < cells; ++i) {
        w.beginObject();
        w.key("job").value(std::uint64_t{i});
        identify(w, i);
        w.key("status").value("ok");
        body(w, i);
        w.endObject();
    }
    w.endArray();
    if (tail)
        tail(w);
    w.endObject();
    return w.str();
}

std::string
sweepToJson(const std::string &sweep_id, const std::vector<SweepJob> &jobs,
            const std::vector<ExperimentResult> &results)
{
    IH_ASSERT(jobs.size() == results.size(),
              "sweepToJson: %zu jobs vs %zu results", jobs.size(),
              results.size());

    const auto identify = [&jobs](JsonWriter &w, std::size_t i) {
        const SweepJob &job = jobs[i];
        w.key("app").value(job.app.name);
        w.key("arch").value(archName(job.arch));
        if (!job.tag.empty())
            w.key("tag").value(job.tag);
        if (job.arch == ArchKind::IRONHIDE)
            w.key("policy").value(policyName(job.ihopts.policy));
    };
    const auto body = [&results](JsonWriter &w, std::size_t i) {
        const ExperimentResult &r = results[i];
        w.key("completion_ms").value(r.run.completionMs());
        w.key("purge_ms").value(cyclesToMs(r.run.purgeCycles));
        w.key("transition_ms").value(cyclesToMs(r.run.transitionCycles));
        w.key("reconfig_ms").value(cyclesToMs(r.run.reconfigCycles));
        // The exact integers behind the ms views, so a consumer needs
        // no floating-point round-trip to recover them.
        w.key("completion_cycles").value(r.run.completion);
        w.key("purge_cycles").value(r.run.purgeCycles);
        w.key("transition_cycles").value(r.run.transitionCycles);
        w.key("reconfig_cycles").value(r.run.reconfigCycles);
        w.key("transitions").value(r.run.transitions);
        w.key("l1_miss_rate").value(r.run.l1MissRate);
        w.key("l2_miss_rate").value(r.run.l2MissRate);
        w.key("interactivity_per_sec").value(r.run.interactivityPerSec);
        w.key("secure_cores").value(std::uint64_t{r.run.secureCores});
        w.key("decided_split").value(std::uint64_t{r.decidedSplit});
        w.key("probes").value(std::uint64_t{r.probes});
        w.key("instructions").value(r.run.instructions);
        w.key("isolation_violations").value(r.run.isolationViolations);
        w.key("blocked_accesses").value(r.run.blockedAccesses);
    };
    const auto tail = [&results](JsonWriter &w) {
        const SweepSummary summary = summarize(results);
        w.key("summary").beginArray();
        for (const ArchAggregate &a : summary.byArch) {
            w.beginObject();
            w.key("arch").value(a.arch);
            w.key("jobs").value(std::uint64_t{a.jobs});
            w.key("geomean_completion_ms").value(a.geomeanCompletionMs);
            w.key("geomean_l1_miss_rate").value(a.geomeanL1MissRate);
            w.key("geomean_l2_miss_rate").value(a.geomeanL2MissRate);
            w.key("mean_secure_cores").value(a.meanSecureCores);
            w.key("total_purge_ms").value(cyclesToMs(a.totalPurgeCycles));
            w.key("total_transition_ms")
                .value(cyclesToMs(a.totalTransitionCycles));
            w.key("total_reconfig_ms")
                .value(cyclesToMs(a.totalReconfigCycles));
            w.endObject();
        }
        w.endArray();

        w.key("stats").beginObject();
        for (const auto &[name, counter] : summary.stats.counters())
            w.key(name).value(counter.value());
        w.endObject();
    };
    return sweepReportJson("sweep/v2", sweep_id, jobs.size(), identify,
                           body, tail);
}

bool
maybeWriteJsonReport(int argc, char **argv, const std::string &sweep_id,
                     const std::vector<SweepJob> &jobs,
                     const std::vector<ExperimentResult> &results)
{
    const char *path = jsonReportPath(argc, argv);
    if (!path)
        return false;
    writeTextFile(path, sweepToJson(sweep_id, jobs, results) + "\n");
    std::printf("wrote JSON report: %s\n", path);
    return true;
}

} // namespace ih
