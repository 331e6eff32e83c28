#include "core/realloc_predictor.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

ReallocPredictor::ReallocPredictor(unsigned min_secure, unsigned max_secure)
    : minSecure_(min_secure), maxSecure_(max_secure)
{
    IH_ASSERT(min_secure >= 1 && min_secure <= max_secure,
              "bad predictor range [%u, %u]", min_secure, max_secure);
}

unsigned
ReallocPredictor::clamp(long s) const
{
    return static_cast<unsigned>(
        std::clamp<long>(s, minSecure_, maxSecure_));
}

ReallocPredictor::Decision
ReallocPredictor::gradientSearch(unsigned start, const ProbeFn &probe,
                                 const PrefetchFn &prefetch) const
{
    Decision d;
    unsigned s = clamp(start);
    unsigned probes = 0;
    auto eval = [&](unsigned x) {
        ++probes;
        return probe(x);
    };
    // Hint the clamped, deduplicated candidate set (most likely
    // first). Values still come exclusively from eval() in unchanged
    // order, so hinting (or not) cannot move the search.
    auto hint = [&](std::initializer_list<long> cands) {
        if (!prefetch)
            return;
        std::vector<unsigned> c;
        for (long x : cands) {
            const unsigned u = clamp(x);
            if (std::find(c.begin(), c.end(), u) == c.end())
                c.push_back(u);
        }
        prefetch(c);
    };
    // The round ladder: the finite-difference pair first (s+step is
    // always consumed; s-step whenever the +dir walk fails its first
    // probe), then the first walk continuation each way — candidates a
    // worker pool can evaluate while the serial search would still be
    // on the first probe. Likelihood decreases down the list, so a
    // pool capping at its worker count wastes the least likely first.
    auto hintRound = [&](unsigned at, unsigned stp) {
        const long a = static_cast<long>(at);
        const long d = static_cast<long>(stp);
        hint({a + d, a - d, a + 2 * d, a - 2 * d});
    };

    // Geometric step schedule: an eighth of the range, halving down to 1.
    unsigned step = std::max(1u, (maxSecure_ - minSecure_) / 8);
    // One combined opening batch: the certain first probe, then the
    // first round's ladder.
    hint({static_cast<long>(s),
          static_cast<long>(s) + static_cast<long>(step),
          static_cast<long>(s) - static_cast<long>(step),
          static_cast<long>(s) + 2 * static_cast<long>(step),
          static_cast<long>(s) - 2 * static_cast<long>(step)});
    double best = eval(s);
    while (true) {
        bool improved = false;
        hintRound(s, step);
        // Finite-difference gradient: look one step each way, walk the
        // descending direction while it keeps improving.
        for (int dir : {+1, -1}) {
            while (true) {
                const unsigned cand = clamp(static_cast<long>(s) +
                                            dir * static_cast<long>(step));
                if (cand == s)
                    break;
                const double f = eval(cand);
                if (f < best) {
                    best = f;
                    s = cand;
                    improved = true;
                    // Momentum speculation: a walk that just improved
                    // likely continues another step or two.
                    hint({static_cast<long>(cand) +
                              dir * static_cast<long>(step),
                          static_cast<long>(cand) +
                              2 * dir * static_cast<long>(step)});
                } else {
                    break;
                }
            }
        }
        if (!improved) {
            if (step == 1)
                break;
            step /= 2;
        }
    }

    d.secureCores = s;
    d.probes = probes;
    d.predicted = best;
    return d;
}

ReallocPredictor::Decision
ReallocPredictor::optimalSweep(const ProbeFn &probe) const
{
    Decision d;
    double best = -1.0;
    for (unsigned s = minSecure_; s <= maxSecure_; ++s) {
        const double f = probe(s);
        ++d.probes;
        if (best < 0.0 || f < best) {
            best = f;
            d.secureCores = s;
        }
    }
    d.predicted = best;
    return d;
}

unsigned
ReallocPredictor::withVariation(unsigned decision, int pct,
                                unsigned total_cores) const
{
    const long delta =
        (static_cast<long>(total_cores) * pct + (pct >= 0 ? 50 : -50)) /
        100;
    return clamp(static_cast<long>(decision) + delta);
}

} // namespace ih
