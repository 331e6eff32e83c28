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
      case SplitPolicy::OPTIMAL:
        return pred.optimalSweep(probe);
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
