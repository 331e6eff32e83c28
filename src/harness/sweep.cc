#include "harness/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
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
summarize(const SweepOutcome &o)
{
    IH_ASSERT(o.results.size() == o.cells.size(),
              "summarize: %zu results vs %zu cells", o.results.size(),
              o.cells.size());
    SweepSummary out;

    struct Acc
    {
        std::vector<double> completionMs, l1, l2;
        std::uint64_t secureCores = 0;
        ArchAggregate agg;
    };
    std::vector<Acc> accs; // ordered by first appearance

    for (std::size_t i = 0; i < o.results.size(); ++i) {
        if (!o.cells[i].ok())
            continue;
        const ExperimentResult &r = o.results[i];
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
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc)
                fatal("--json requires a file argument");
            path = argv[i + 1];
        }
    }
    if (path)
        probeWritable(path);
    return path;
}

// --------------------------------------------------------------------------
// Fault-tolerant sweeps
// --------------------------------------------------------------------------

const char *
cellStatusName(CellStatus status, unsigned attempts)
{
    switch (status) {
      case CellStatus::OK:
        return attempts > 1 ? "retried" : "ok";
      case CellStatus::FAILED:
        return "failed";
      case CellStatus::TIMEOUT:
        return "timeout";
      case CellStatus::SKIPPED:
        return "skipped";
    }
    return "?";
}

std::size_t
SweepCells::shardJobs() const
{
    std::size_t n = 0;
    for (const CellOutcome &c : cells)
        if (c.status != CellStatus::SKIPPED)
            ++n;
    return n;
}

bool
SweepCells::complete() const
{
    return failedCells().empty();
}

std::vector<std::size_t>
SweepCells::failedCells() const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].status == CellStatus::FAILED ||
            cells[i].status == CellStatus::TIMEOUT)
            out.push_back(i);
    return out;
}

ShardSpec
sweepShard()
{
    const char *env = knobText(Knob::SHARD);
    if (!env)
        return {};
    unsigned long idx = 0, cnt = 0;
    if (!parseShardSpec("IRONHIDE_SHARD", env, 4096, idx, cnt)) {
        // Unlike the worker-count knobs, a bad shard spec must not fall
        // back: "run everything" on what the operator believes is one
        // shard of N silently redoes (and re-reports) the whole sweep.
        fatal("invalid IRONHIDE_SHARD '%s' (want <i>/<N> with i < N)",
              env);
    }
    ShardSpec s;
    s.index = static_cast<unsigned>(idx);
    s.count = static_cast<unsigned>(cnt);
    return s;
}

SweepRunOptions
sweepRunFromArgs(int argc, char **argv)
{
    SweepRunOptions o;
    o.threads = knobWorkers(Knob::THREADS);
    o.shard = sweepShard();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--isolate") == 0) {
            o.isolate = true;
        } else if (std::strcmp(argv[i], "--journal") == 0) {
            if (i + 1 >= argc)
                fatal("--journal requires a file argument");
            o.journalPath = argv[++i];
        } else if (std::strcmp(argv[i], "--merge") == 0) {
            const std::size_t given = o.mergePaths.size();
            while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                o.mergePaths.emplace_back(argv[++i]);
            if (o.mergePaths.size() == given)
                fatal("--merge requires at least one journal path");
        }
    }
    o.timeoutMs = knobCount(Knob::JOB_TIMEOUT_MS);
    o.retries = static_cast<unsigned>(knobCount(Knob::JOB_RETRIES));
    return o;
}

PayloadOutcome
runFaultTolerantPayloadSweep(
    const std::string &sweep_id, std::size_t jobs,
    const std::function<std::string(std::size_t)> &fn,
    const PayloadJournal::Validator &validate,
    const std::function<std::string(const std::string &)> &perturb,
    const SweepRunOptions &opts, const FaultPlan &faults)
{
    const std::size_t n = jobs;
    PayloadOutcome out;
    out.shard = opts.shard;
    out.payloads.resize(n);
    out.cells.resize(n);

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (!opts.shard.owns(i)) {
            out.cells[i].status = CellStatus::SKIPPED;
            out.cells[i].attempts = 0;
        } else {
            pending.push_back(i);
        }
    }

    // Completed cells: this shard's journal, or under --merge the union
    // of the shard journals — a resume that leaves nothing to run.
    std::unique_ptr<PayloadJournal> journal;
    std::map<std::size_t, PayloadJournal::Entry> done;
    const bool merge = !opts.mergePaths.empty();
    if (merge) {
        if (opts.shard.active() || !opts.journalPath.empty())
            throw JournalError("--merge rebuilds the whole sweep from "
                               "shard journals: it takes neither "
                               "IRONHIDE_SHARD nor --journal");
        for (const std::string &path : opts.mergePaths) {
            for (auto &[i, e] :
                 PayloadJournal::load(path, sweep_id, n, validate)) {
                if (!done.emplace(i, std::move(e)).second)
                    throw JournalError(strprintf(
                        "--merge: job %zu is in more than one journal "
                        "(a shard given twice?)",
                        i));
            }
        }
    } else if (!opts.journalPath.empty()) {
        journal = std::make_unique<PayloadJournal>(
            opts.journalPath, sweep_id, n, opts.shard, validate);
        done = journal->open();
    }
    std::vector<std::size_t> still;
    still.reserve(pending.size());
    for (const std::size_t i : pending) {
        const auto it = done.find(i);
        if (it == done.end()) {
            still.push_back(i);
            continue;
        }
        out.payloads[i] = std::move(it->second.payload);
        out.cells[i].attempts = it->second.attempts;
    }
    out.resumed = pending.size() - still.size();
    pending.swap(still);

    if (merge && !pending.empty())
        throw JournalError(strprintf(
            "--merge: job %zu is in no journal; resume its shard from "
            "its journal, then merge again",
            pending.front()));
    if (pending.empty())
        return out;

    if (opts.isolate) {
        // The supervisor forks; it must own the only thread in this
        // process, so the children *are* the parallelism here.
        IsolateConfig icfg;
        icfg.workers = opts.threads;
        icfg.timeoutMs = opts.timeoutMs;
        icfg.retries = opts.retries;
        std::vector<RawIsolatedCell> cells = superviseRawJobs(
            pending, fn, validate, perturb, icfg, faults,
            [&](std::size_t k, const RawIsolatedCell &cell) {
                if (journal && cell.ok)
                    journal->append(pending[k], cell.payload,
                                    cell.attempts);
            });
        for (std::size_t k = 0; k < pending.size(); ++k) {
            const std::size_t i = pending[k];
            RawIsolatedCell &c = cells[k];
            out.cells[i].attempts = c.attempts;
            if (c.ok) {
                out.payloads[i] = std::move(c.payload);
            } else {
                out.cells[i].status = c.timedOut ? CellStatus::TIMEOUT
                                                 : CellStatus::FAILED;
                out.cells[i].error = std::move(c.error);
            }
        }
    } else {
        // Inline: opts.threads sweep workers, but a throwing cell is
        // caught and marked FAILED instead of aborting the sweep.
        // Crashes/hangs still take the process down — that is what
        // --isolate is for.
        parallelForIndex(pending.size(), opts.threads,
                         [&](std::size_t k) {
                             const std::size_t i = pending[k];
                             try {
                                 triggerFault(faults.at(i));
                                 out.payloads[i] = fn(i);
                                 if (journal)
                                     journal->append(i, out.payloads[i],
                                                     1);
                             } catch (const std::exception &e) {
                                 out.cells[i].status =
                                     CellStatus::FAILED;
                                 out.cells[i].error = e.what();
                             }
                         });
    }
    return out;
}

namespace
{

// The experiment codec: a cell's payload is its "ihres1"-serialized
// ExperimentResult. The wire format round-trips results exactly, so
// threading every cell through it changes no observable byte
// (tests/test_faults.cc pins the round trip).

std::function<std::string(std::size_t)>
experimentPayloads(const std::vector<SweepJob> &jobs)
{
    return [&jobs](std::size_t i) {
        const SweepJob &j = jobs[i];
        return serializeResult(
            runExperiment(j.app, j.arch, j.cfg, j.ihopts));
    };
}

bool
isResultPayload(const std::string &payload)
{
    ExperimentResult r;
    return deserializeResult(payload, r);
}

std::string
perturbResultPayload(const std::string &payload)
{
    ExperimentResult r;
    const bool ok = deserializeResult(payload, r);
    IH_ASSERT(ok, "NONDET perturbation of an undecodable payload");
    r.run.instructions += 1;
    return serializeResult(r);
}

SweepOutcome
decodeResults(const PayloadOutcome &p)
{
    SweepOutcome out;
    static_cast<SweepCells &>(out) = p;
    out.results.resize(p.cells.size());
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
        if (!p.cells[i].ok())
            continue;
        const bool ok = deserializeResult(p.payloads[i], out.results[i]);
        IH_ASSERT(ok, "validated payload failed to decode");
    }
    return out;
}

} // namespace

SweepOutcome
runFaultTolerantSweep(const std::string &sweep_id,
                      const std::vector<SweepJob> &jobs,
                      const SweepRunOptions &opts, const FaultPlan &faults)
{
    return decodeResults(runFaultTolerantPayloadSweep(
        sweep_id, jobs.size(), experimentPayloads(jobs), isResultPayload,
        perturbResultPayload, opts, faults));
}

PayloadOutcome
runBenchPayloadSweep(
    int argc, char **argv, const std::string &sweep_id, std::size_t jobs,
    const std::function<std::string(std::size_t)> &fn,
    const PayloadJournal::Validator &validate,
    const std::function<std::string(const std::string &)> &perturb,
    const std::function<std::string(std::size_t)> &label)
{
    jsonReportPath(argc, argv); // fail-fast probe before the runs
    const SweepRunOptions opts = sweepRunFromArgs(argc, argv);
    const FaultPlan faults = FaultPlan::fromEnv();

    PayloadOutcome out;
    try {
        out = runFaultTolerantPayloadSweep(sweep_id, jobs, fn, validate,
                                           perturb, opts, faults);
    } catch (const JournalError &e) {
        fatal("%s", e.what());
    }

    if (out.sharded())
        std::printf("shard %s: %zu of %zu jobs\n",
                    out.shard.str().c_str(), out.shardJobs(), jobs);
    if (!opts.journalPath.empty())
        std::printf("resume: %zu of %zu jobs already complete\n",
                    out.resumed, out.shardJobs());
    if (!opts.mergePaths.empty())
        std::printf("merge: %zu jobs from %zu journals\n", out.resumed,
                    opts.mergePaths.size());
    for (const std::size_t i : out.failedCells()) {
        const CellOutcome &c = out.cells[i];
        std::printf("%s job %zu (%s): %s [%u attempt%s]\n",
                    c.status == CellStatus::TIMEOUT ? "TIMEOUT"
                                                    : "FAILED",
                    i, label(i).c_str(), c.error.c_str(), c.attempts,
                    c.attempts == 1 ? "" : "s");
    }
    if (!out.complete())
        std::printf("sweep degraded: %zu of %zu cells failed; tables "
                    "and summaries cover the survivors only\n",
                    out.failedCells().size(), out.shardJobs());
    return out;
}

SweepOutcome
runBenchSweep(int argc, char **argv, const std::string &sweep_id,
              const std::vector<SweepJob> &jobs)
{
    return decodeResults(runBenchPayloadSweep(
        argc, argv, sweep_id, jobs.size(), experimentPayloads(jobs),
        isResultPayload, perturbResultPayload, [&jobs](std::size_t i) {
            const SweepJob &j = jobs[i];
            return strprintf("%s/%s%s%s", j.app.name.c_str(),
                             archName(j.arch), j.tag.empty() ? "" : " ",
                             j.tag.c_str());
        }));
}

std::string
sweepReportJson(const char *schema, const std::string &sweep_id,
                const SweepCells &o, const CellWriter &identify,
                const CellWriter &body,
                const std::function<void(JsonWriter &)> &tail)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(schema);
    w.key("sweep").value(sweep_id);
    w.key("jobs").value(std::uint64_t{o.cells.size()});
    if (o.sharded()) {
        w.key("shard").value(o.shard.str());
        w.key("shard_jobs").value(std::uint64_t{o.shardJobs()});
    }
    w.key("complete").value(o.complete());
    const std::vector<std::size_t> failed = o.failedCells();
    if (!failed.empty()) {
        w.key("failed_cells").beginArray();
        for (const std::size_t i : failed)
            w.value(std::uint64_t{i});
        w.endArray();
    }

    w.key("results").beginArray();
    for (std::size_t i = 0; i < o.cells.size(); ++i) {
        const CellOutcome &c = o.cells[i];
        if (c.status == CellStatus::SKIPPED)
            continue;
        w.beginObject();
        w.key("job").value(std::uint64_t{i});
        identify(w, i);
        w.key("status").value(cellStatusName(c.status, c.attempts));
        if (c.attempts > 1)
            w.key("attempts").value(c.attempts);
        if (c.ok())
            body(w, i);
        else
            w.key("error").value(c.error);
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
            const SweepOutcome &o)
{
    IH_ASSERT(jobs.size() == o.results.size() &&
                  jobs.size() == o.cells.size(),
              "sweepToJson: %zu jobs vs %zu results / %zu cells",
              jobs.size(), o.results.size(), o.cells.size());

    const auto identify = [&jobs](JsonWriter &w, std::size_t i) {
        const SweepJob &job = jobs[i];
        w.key("app").value(job.app.name);
        w.key("arch").value(archName(job.arch));
        if (!job.tag.empty())
            w.key("tag").value(job.tag);
        if (job.arch == ArchKind::IRONHIDE)
            w.key("policy").value(policyName(job.ihopts.policy));
    };
    const auto body = [&o](JsonWriter &w, std::size_t i) {
        const ExperimentResult &r = o.results[i];
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
    const auto tail = [&o](JsonWriter &w) {
        const SweepSummary summary = summarize(o);
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
    return sweepReportJson("sweep/v2", sweep_id, o, identify, body, tail);
}

bool
maybeWriteJsonReport(int argc, char **argv, const std::string &sweep_id,
                     const std::vector<SweepJob> &jobs,
                     const SweepOutcome &outcome)
{
    const char *path = jsonReportPath(argc, argv);
    if (!path)
        return false;
    writeTextFile(path, sweepToJson(sweep_id, jobs, outcome) + "\n");
    std::printf("wrote JSON report: %s\n", path);
    return true;
}

} // namespace ih
