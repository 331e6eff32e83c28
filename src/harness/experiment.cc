#include "harness/experiment.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <map>
#include <thread>
#include <vector>

#include "core/ironhide.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "sim/log.hh"

namespace ih
{

namespace
{

/** One probe: a short IRONHIDE run at a fixed split on a fresh machine. */
double
probeCompletion(const AppSpec &spec, const SysConfig &cfg, unsigned split,
                std::uint64_t interactions)
{
    System sys(cfg);
    Ironhide model(sys);
    model.setInitialSplit(split);
    InteractiveApp app(sys, model, spec);
    RunOptions opts;
    opts.warmup = std::min<std::uint64_t>(2, interactions / 2);
    opts.maxInteractions = interactions + opts.warmup;
    const RunResult r = app.run(opts);
    return static_cast<double>(r.completion);
}

/**
 * Memoized probe evaluator with optional domain-parallel prefetch.
 *
 * probeCompletion() is a pure function of (spec, cfg, split,
 * interactions) — every probe builds and discards a fresh System — so
 * probes at distinct splits commute and can run on concurrent host
 * workers without any observable effect beyond wall time. The pool
 * exploits that: prefetch() evaluates a batch of splits in parallel
 * and memoizes the values; probe() serves the memo (or computes
 * serially on a miss). Both are called only from the search thread —
 * the memo is never mutated concurrently, the workers write a local
 * array that is folded in after the join — so the values the search
 * consumes are bit-identical at any worker count.
 */
class ProbePool
{
  public:
    ProbePool(const AppSpec &spec, const SysConfig &cfg,
              std::uint64_t interactions, unsigned workers)
        : spec_(spec), cfg_(cfg), interactions_(interactions),
          workers_(std::max(1u, workers))
    {
    }

    double
    probe(unsigned split)
    {
        auto it = memo_.find(split);
        if (it != memo_.end()) {
            // A failed speculative evaluation surfaces if — and only
            // if — the search actually consumes this split, exactly
            // where the serial path would have thrown. Speculative
            // failures of never-consumed splits die with the pool, so
            // "domains buys wall time only" holds on the error path
            // too.
            if (it->second.error)
                std::rethrow_exception(it->second.error);
            return it->second.value;
        }
        const double f =
            probeCompletion(spec_, cfg_, split, interactions_);
        memo_.emplace(split, Entry{f, nullptr});
        return f;
    }

    /**
     * Speculative hint (likelihood-ordered): evaluate at most one
     * worker-round of the not-yet-memoized prefix, so a batch costs
     * one probe of wall time and at most workers-1 speculative probes
     * can ever go unconsumed.
     */
    void
    prefetch(const std::vector<unsigned> &candidates)
    {
        // With no second hardware thread to absorb it, speculation can
        // only burn wall time — skip it (results are unchanged either
        // way by the advisory-hint contract; certain work below is
        // exempt since every one of its probes gets consumed). A
        // report of 0 means "unknown" per the standard, so only a
        // *known* single-core host disables speculation.
        if (std::thread::hardware_concurrency() == 1)
            return;
        fill(candidates, /*cap=*/workers_);
    }

    /** Certain work (every candidate will be consumed): no cap. */
    void
    prefetchAll(const std::vector<unsigned> &candidates)
    {
        fill(candidates, candidates.size());
    }

  private:
    void
    fill(const std::vector<unsigned> &candidates, std::size_t cap)
    {
        if (workers_ <= 1)
            return; // serial path: evaluate lazily in probe()
        std::vector<unsigned> missing;
        for (unsigned s : candidates) {
            if (missing.size() >= cap)
                break;
            if (memo_.count(s) == 0 &&
                std::find(missing.begin(), missing.end(), s) ==
                    missing.end()) {
                missing.push_back(s);
            }
        }
        if (missing.empty())
            return;
        std::vector<Entry> vals(missing.size());
        parallelForIndex(missing.size(), workers_, [&](std::size_t i) {
            // Capture failures instead of letting them propagate: the
            // serial search never evaluates a speculative candidate it
            // does not consume, so neither may a worker failure abort
            // the run. probe() rethrows at the consumption point.
            try {
                vals[i].value = probeCompletion(spec_, cfg_, missing[i],
                                                interactions_);
            } catch (...) {
                vals[i].error = std::current_exception();
            }
        });
        for (std::size_t i = 0; i < missing.size(); ++i)
            memo_.emplace(missing[i], vals[i]);
    }

    /** One memoized evaluation: a value, or the exception it threw. */
    struct Entry
    {
        double value = 0.0;
        std::exception_ptr error;
    };

    const AppSpec &spec_;
    const SysConfig &cfg_;
    std::uint64_t interactions_;
    unsigned workers_;
    std::map<unsigned, Entry> memo_;
};

} // namespace

ReallocPredictor::Decision
decideSplit(const AppSpec &spec, const SysConfig &cfg, SplitPolicy policy,
            std::uint64_t probe_interactions, unsigned domains)
{
    const unsigned tiles = cfg.meshWidth * cfg.meshHeight;
    // Keep at least two tiles per cluster so both memory controllers of
    // each edge stay reachable.
    ReallocPredictor pred(2, tiles - 2);
    ProbePool pool(spec, cfg, probe_interactions, domains);
    const auto probe = [&](unsigned s) { return pool.probe(s); };

    switch (policy) {
      case SplitPolicy::HEURISTIC:
        if (domains > 1) {
            return pred.gradientSearch(
                tiles / 2, probe,
                [&](const std::vector<unsigned> &c) { pool.prefetch(c); });
        }
        return pred.gradientSearch(tiles / 2, probe);
      case SplitPolicy::OPTIMAL: {
        // Oracle: sweep even splits, then refine +/-1 around the best.
        // The even grid is known upfront, so the domain workers can
        // evaluate it wholesale; the selection loop below still
        // consumes the (memoized) values in canonical split order.
        if (domains > 1) {
            std::vector<unsigned> evens;
            for (unsigned s = 2; s <= tiles - 2; s += 2)
                evens.push_back(s);
            pool.prefetchAll(evens);
        }
        ReallocPredictor::Decision best;
        double best_f = -1.0;
        for (unsigned s = 2; s <= tiles - 2; s += 2) {
            const double f = probe(s);
            ++best.probes;
            if (best_f < 0 || f < best_f) {
                best_f = f;
                best.secureCores = s;
            }
        }
        if (domains > 1) {
            pool.prefetch({static_cast<unsigned>(std::max<long>(
                               2, static_cast<long>(best.secureCores) - 1)),
                           std::min(tiles - 2, best.secureCores + 1)});
        }
        for (int d : {-1, +1}) {
            const long cand = static_cast<long>(best.secureCores) + d;
            if (cand >= 2 && cand <= static_cast<long>(tiles) - 2) {
                const double f = probe(static_cast<unsigned>(cand));
                ++best.probes;
                if (f < best_f) {
                    best_f = f;
                    best.secureCores = static_cast<unsigned>(cand);
                }
            }
        }
        best.predicted = best_f;
        return best;
      }
      case SplitPolicy::FIXED:
      case SplitPolicy::STATIC_HALF:
        break;
    }
    ReallocPredictor::Decision d;
    d.secureCores = tiles / 2;
    return d;
}

unsigned
effectiveDomains(const SysConfig &cfg)
{
    // Same strict shared parsing as IRONHIDE_THREADS (parseEnvUnsigned),
    // with the domains-specific semantics on top: 0 = hardware
    // concurrency, anything invalid/unset = the config knob.
    unsigned long v = 0;
    if (parseEnvUnsigned("IRONHIDE_DOMAINS",
                         std::getenv("IRONHIDE_DOMAINS"), 256, v)) {
        if (v == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            return std::clamp(hw, 1u, 256u);
        }
        return static_cast<unsigned>(v);
    }
    return cfg.domains;
}

ExperimentResult
runExperiment(const AppSpec &spec, ArchKind kind, const SysConfig &cfg,
              const IronhideOptions &ihopts)
{
    ExperimentResult out;
    out.app = spec.name;
    out.arch = archName(kind);

    System sys(cfg);
    std::unique_ptr<SecurityModel> model = createModel(kind, sys);
    RunOptions opts;
    opts.warmup = std::min<std::uint64_t>(8, spec.interactions / 4);

    if (kind == ArchKind::IRONHIDE &&
        ihopts.policy != SplitPolicy::STATIC_HALF) {
        unsigned target;
        if (ihopts.policy == SplitPolicy::FIXED) {
            target = ihopts.fixedSplit;
        } else {
            ReallocPredictor::Decision d =
                decideSplit(spec, cfg, ihopts.policy,
                            ihopts.probeInteractions,
                            effectiveDomains(cfg));
            target = d.secureCores;
            out.probes = d.probes;
            if (ihopts.variationPct != 0) {
                const unsigned tiles = cfg.meshWidth * cfg.meshHeight;
                ReallocPredictor pred(2, tiles - 2);
                target = pred.withVariation(target, ihopts.variationPct,
                                            tiles);
            }
        }
        opts.reconfigTarget = target;
        out.decidedSplit = target;
    }

    InteractiveApp app(sys, *model, spec);
    out.run = app.run(opts);
    if (out.decidedSplit == 0)
        out.decidedSplit = model->secureCoreCount();
    return out;
}

double
benchScale()
{
    return envPositiveDouble("IRONHIDE_SCALE", 1.0);
}

SysConfig
benchConfig()
{
    SysConfig cfg;
    cfg.validate();
    return cfg;
}

} // namespace ih
