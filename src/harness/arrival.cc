#include "harness/arrival.hh"

#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace ih
{

ArrivalProcess::ArrivalProcess(ArrivalConfig cfg) : cfg_(std::move(cfg))
{
    IH_ASSERT(cfg_.lambdaPerSec > 0.0 &&
                  std::isfinite(cfg_.lambdaPerSec),
              "arrival rate %f must be positive and finite",
              cfg_.lambdaPerSec);
    IH_ASSERT(cfg_.sessions > 0, "arrival schedule needs sessions");
    double total = 0.0;
    for (const double w : cfg_.mix) {
        IH_ASSERT(w >= 0.0 && std::isfinite(w),
                  "negative/non-finite mix weight %f", w);
        total += w;
    }
    IH_ASSERT(cfg_.mix.empty() || total > 0.0,
              "session mix has no positive weight");
}

std::vector<Arrival>
ArrivalProcess::schedule() const
{
    // One private Rng, one fixed draw order (gap, then app, per
    // session): the schedule depends on nothing but the config.
    Rng rng(cfg_.seed);
    const double meanGapCycles = 1e9 / cfg_.lambdaPerSec; // 1 GHz clock

    double totalWeight = 0.0;
    for (const double w : cfg_.mix)
        totalWeight += w;

    std::vector<Arrival> out;
    out.reserve(cfg_.sessions);
    double t = 0.0;
    for (std::uint64_t i = 0; i < cfg_.sessions; ++i) {
        t += rng.nextExponential(meanGapCycles);
        Arrival a;
        a.cycle = static_cast<Cycle>(t);
        if (!cfg_.mix.empty()) {
            // Weighted choice by prefix sum over a uniform draw. The
            // draw happens even for single-app mixes so the schedule
            // shape never depends on the mix size.
            const double u = rng.nextDouble() * totalWeight;
            double acc = 0.0;
            a.appIndex = cfg_.mix.size() - 1;
            for (std::size_t k = 0; k < cfg_.mix.size(); ++k) {
                acc += cfg_.mix[k];
                if (u < acc) {
                    a.appIndex = k;
                    break;
                }
            }
            // A zero-weight tail app can only be reached by the
            // fallback assignment above when u rounds to totalWeight;
            // walk back to the last positively weighted app.
            while (a.appIndex > 0 && cfg_.mix[a.appIndex] <= 0.0)
                --a.appIndex;
        }
        out.push_back(a);
    }
    return out;
}

} // namespace ih
