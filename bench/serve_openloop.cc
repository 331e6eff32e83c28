/**
 * @file
 * Open-loop serving sweep: session-latency percentiles and
 * goodput-vs-offered-load curves under continuous enclave churn.
 *
 * The paper evaluates IRONHIDE on one application at a time; this
 * bench asks the deployment question instead: a long-lived machine
 * receives a Poisson stream of sessions over the paper's applications,
 * every arrival spawns an enclave invocation (secure allocation,
 * reconfiguration decision, teardown scrub on the next distrusting
 * arrival), and each architecture's ladder escalates the offered load
 * until saturation (harness/serve). The headline contrast: SGX pays a
 * constant per-interaction tax, MI6's purge-bracketed entry/exit
 * crushes its saturation point, and IRONHIDE serves near the insecure
 * machine's knee while still purging between distrusting apps.
 *
 * One job = one architecture's whole ladder, run through the generic
 * fault-tolerance layer: IRONHIDE_SHARD skips ladders other shards
 * own, --journal resumes completed ladders across crashes, --merge
 * rebuilds the whole report from the shard journals, --isolate
 * forks each ladder into a supervised child (IRONHIDE_JOB_TIMEOUT_MS /
 * IRONHIDE_JOB_RETRIES apply). `--json <path>` writes the
 * "BENCH_serve/v1" report — byte-identical at any IRONHIDE_THREADS /
 * IRONHIDE_DOMAINS setting (CI diffs 1 vs 4).
 *
 * Knobs: IRONHIDE_SERVE_SESSIONS (sessions per ladder rung, default
 * 48), IRONHIDE_SERVE_APPS (serve only the first n paper apps),
 * IRONHIDE_SERVE_SEED (arrival-process seed),
 * IRONHIDE_SERVE_LAMBDA0 (first rung's offered load in sessions/s;
 * unset = calibrate off the insecure machine),
 * IRONHIDE_SERVE_CALIB (pinned = calibrate the ladder origin on the
 * INSECURE machine so every architecture runs the same absolute
 * loads, the default; per-arch = calibrate on the architecture under
 * test, starting each ladder the same relative distance below its own
 * knee), IRONHIDE_MAX_LOAD_STEPS (rung bound, default 6).
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/serve.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"

using namespace ih;

namespace
{

const ArchKind kArchs[] = {ArchKind::INSECURE, ArchKind::SGX_LIKE,
                           ArchKind::MI6, ArchKind::IRONHIDE};
constexpr std::size_t kNumArchs = 4;

LoadLadderOptions
ladderOptions()
{
    LoadLadderOptions opts;
    opts.maxSteps = maxLoadSteps();
    opts.lambda0 = knobReal(Knob::SERVE_LAMBDA0);
    opts.serve.sessions = knobCount(Knob::SERVE_SESSIONS);
    opts.serve.seed = knobCount(Knob::SERVE_SEED);
    if (const char *calib = knobText(Knob::SERVE_CALIB)) {
        const std::string s = calib;
        if (s == "per-arch")
            opts.perArchCalib = true;
        else if (s != "pinned")
            fatal("unknown IRONHIDE_SERVE_CALIB '%s' (pinned|per-arch)",
                  calib);
    }
    return opts;
}

std::string
serveToJson(const PayloadOutcome &out)
{
    const auto identify = [](JsonWriter &w, std::size_t i) {
        w.key("arch").value(archName(kArchs[i]));
    };
    const auto body = [&out](JsonWriter &w, std::size_t i) {
        LoadLadderResult ladder;
        const bool ok = deserializeLadder(out.payloads[i], ladder);
        IH_ASSERT(ok, "validated ladder payload failed to decode");
        w.key("stop_reason").value(ladder.stopReason);
        w.key("steps").beginArray();
        for (const ServeCellResult &s : ladder.steps) {
            w.beginObject();
            w.key("offered_per_sec").value(s.offeredPerSec);
            w.key("sessions").value(s.sessions);
            w.key("makespan_cycles").value(s.makespan);
            w.key("p50_cycles").value(s.p50);
            w.key("p99_cycles").value(s.p99);
            w.key("p999_cycles").value(s.p999);
            w.key("max_latency_cycles").value(s.maxLatency);
            w.key("mean_latency_cycles").value(s.meanLatency);
            w.key("goodput_per_sec").value(s.goodputPerSec);
            w.key("max_queue_depth").value(s.maxQueueDepth);
            w.key("reconfig_events").value(s.reconfigEvents);
            w.key("app_switch_purges").value(s.appSwitchPurges);
            w.key("transitions").value(s.transitions);
            w.key("purge_cycles").value(s.purgeCycles);
            w.key("transition_cycles").value(s.transitionCycles);
            w.key("reconfig_cycles").value(s.reconfigCycles);
            w.endObject();
        }
        w.endArray();
    };
    return sweepReportJson("BENCH_serve/v1", "serve_openloop", out,
                           identify, body);
}

} // namespace

int
main(int argc, char **argv)
{
    const SysConfig cfg = benchConfig();
    std::vector<AppSpec> apps = standardApps(benchScale());
    if (const unsigned long n = knobCount(Knob::SERVE_APPS); n > 0)
        apps.resize(n); // 0 = all of them, as when unset
    const LoadLadderOptions base = ladderOptions();

    printBanner("Open-loop serving: latency under enclave churn",
                "Poisson session arrivals on a long-lived machine; "
                "offered load escalates until saturation per "
                "architecture.");
    std::printf("sessions/rung %" PRIu64 ", rung bound %u, apps %zu\n\n",
                base.serve.sessions, base.maxSteps, apps.size());

    // One job per architecture. The IRONHIDE ladder binds each app's
    // preferred split once (the paper's heuristic) and rebinds the
    // cluster per arriving session; recomputing inside the job keeps
    // it self-contained under --isolate and resume.
    const auto runJob = [&](std::size_t i) {
        LoadLadderOptions lopts = base;
        if (kArchs[i] == ArchKind::IRONHIDE) {
            for (const AppSpec &app : apps)
                lopts.serve.splits.push_back(
                    decideSplit(app, cfg, SplitPolicy::HEURISTIC, 4,
                                effectiveDomains(cfg))
                        .secureCores);
        }
        return serializeLadder(
            runLoadLadder(kArchs[i], cfg, apps, lopts));
    };
    const auto validate = [](const std::string &payload) {
        LoadLadderResult r;
        return deserializeLadder(payload, r);
    };
    const auto perturb = [](const std::string &payload) {
        LoadLadderResult r;
        const bool ok = deserializeLadder(payload, r);
        IH_ASSERT(ok, "NONDET perturbation of an undecodable payload");
        if (!r.steps.empty())
            r.steps[0].transitions += 1;
        return serializeLadder(r);
    };

    const PayloadOutcome out = runBenchPayloadSweep(
        argc, argv, "serve_openloop", kNumArchs, runJob, validate, perturb,
        [](std::size_t i) { return std::string(archName(kArchs[i])); });

    Table table({"arch", "offered/s", "goodput/s", "p50(us)", "p99(us)",
                 "p999(us)", "maxq", "reconfigs", "purges", "stop"});
    for (std::size_t i = 0; i < kNumArchs; ++i) {
        if (!out.cells[i].ok())
            continue;
        LoadLadderResult ladder;
        const bool ok = deserializeLadder(out.payloads[i], ladder);
        IH_ASSERT(ok, "validated ladder payload failed to decode");
        for (std::size_t s = 0; s < ladder.steps.size(); ++s) {
            const ServeCellResult &c = ladder.steps[s];
            const bool last = s + 1 == ladder.steps.size();
            table.addRow(
                {s == 0 ? ladder.arch : "", Table::num(c.offeredPerSec, 0),
                 Table::num(c.goodputPerSec, 0),
                 Table::num(cyclesToUs(c.p50), 1),
                 Table::num(cyclesToUs(c.p99), 1),
                 Table::num(cyclesToUs(c.p999), 1),
                 strprintf("%" PRIu64, c.maxQueueDepth),
                 strprintf("%" PRIu64, c.reconfigEvents),
                 strprintf("%" PRIu64, c.appSwitchPurges),
                 last ? ladder.stopReason : ""});
        }
        table.addSeparator();
    }
    table.print();

    if (const char *path = jsonReportPath(argc, argv)) {
        writeTextFile(path, serveToJson(out) + "\n");
        std::printf("wrote JSON report: %s\n", path);
    }
    return out.exitCode();
}
