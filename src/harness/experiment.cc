#include "harness/experiment.hh"

#include <algorithm>

#include "core/ironhide.hh"
#include "harness/report.hh"

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

} // namespace

ReallocPredictor::Decision
decideSplit(const AppSpec &spec, const SysConfig &cfg, SplitPolicy policy,
            std::uint64_t probe_interactions, unsigned)
{
    const unsigned tiles = cfg.meshWidth * cfg.meshHeight;
    // Keep at least two tiles per cluster so both memory controllers of
    // each edge stay reachable.
    ReallocPredictor pred(2, tiles - 2);
    const auto probe = [&](unsigned s) {
        return probeCompletion(spec, cfg, s, probe_interactions);
    };

    switch (policy) {
      case SplitPolicy::HEURISTIC:
        return pred.gradientSearch(tiles / 2, probe);
      case SplitPolicy::OPTIMAL: {
        // Oracle: sweep even splits, then refine +/-1 around the best.
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
        // The +1 step starts from the updated best, so once best-1 wins
        // it lands back on the even winner: a counted probe whose value
        // is known (and loses), so it is not simulated again.
        const long even = best.secureCores;
        const double even_f = best_f;
        for (int d : {-1, +1}) {
            const long cand = static_cast<long>(best.secureCores) + d;
            if (cand >= 2 && cand <= static_cast<long>(tiles) - 2) {
                const double f = cand == even
                                     ? even_f
                                     : probe(static_cast<unsigned>(cand));
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
effectiveDomains(const SysConfig &)
{
    return 1;
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
            ReallocPredictor::Decision d = decideSplit(
                spec, cfg, ihopts.policy, ihopts.probeInteractions);
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
    return knobReal(Knob::SCALE);
}

SysConfig
benchConfig()
{
    SysConfig cfg;
    cfg.validate();
    return cfg;
}

} // namespace ih
