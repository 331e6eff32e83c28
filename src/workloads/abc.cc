#include "workloads/abc.hh"

#include <algorithm>
#include <cmath>

namespace ih
{

AbcWorkload::AbcWorkload(VisionWorkload &vision, const AbcParams &p)
    : vision_(vision), p_(p)
{
}

void
AbcWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    (void)ipc;
    solutions_.init(proc,
                    static_cast<std::size_t>(p_.colony) * p_.dims, 0.0);
    fitness_.init(proc, p_.colony, 0.0);
    trials_.init(proc, p_.colony, 0);
    costField_.init(proc, vision_.frame().size(), 0);
    for (std::size_t i = 0; i < solutions_.size(); ++i)
        solutions_.host(i) = static_cast<double>(i % 97) / 97.0;
}

void
AbcWorkload::beginPhase(PhaseKind kind, std::uint64_t interaction,
                        unsigned num_threads)
{
    IH_ASSERT(kind == PhaseKind::CONSUME, "ABC is the consumer");
    (void)interaction;
    beeCursor_.assign(num_threads, 0);
    beeEnd_.assign(num_threads, 0);
    stage_.assign(num_threads, 0);
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(p_.colony, num_threads, t);
        beeCursor_[t] = r.begin;
        beeEnd_[t] = r.end;
    }
}

double
AbcWorkload::evaluate(ExecContext &ctx, unsigned bee)
{
    // Path cost: sample the cost field at each waypoint.
    double cost = 0.0;
    const std::size_t field = costField_.size();
    for (unsigned d = 0; d < p_.dims; ++d) {
        const double x = std::clamp(
            solutions_.read(ctx, bee * p_.dims + d), -8.0, 8.0);
        const auto cell =
            static_cast<std::size_t>(std::fabs(x) * 7919.0) % field;
        cost += costField_.read(ctx, cell) + x * x;
        ctx.compute(8);
    }
    return 1.0 / (1.0 + cost);
}

void
AbcWorkload::perturb(ExecContext &ctx, unsigned bee)
{
    const unsigned d =
        static_cast<unsigned>(ctx.rng().nextRange(p_.dims));
    const unsigned other =
        static_cast<unsigned>(ctx.rng().nextRange(p_.colony));
    const double phi = ctx.rng().nextDouble() * 2.0 - 1.0;
    const std::size_t i = static_cast<std::size_t>(bee) * p_.dims + d;
    const double xi = solutions_.read(ctx, i);
    const double xo = solutions_.read(
        ctx, static_cast<std::size_t>(other) * p_.dims + d);
    const double cand =
        std::clamp(xi + phi * (xi - xo), -8.0, 8.0);

    const double old_fit = fitness_.read(ctx, bee);
    const double saved = solutions_.host(i);
    solutions_.host(i) = cand;
    const double new_fit = evaluate(ctx, bee);
    if (new_fit > old_fit) {
        solutions_.write(ctx, i, cand);
        fitness_.write(ctx, bee, new_fit);
        trials_.write(ctx, bee, 0);
    } else {
        solutions_.host(i) = saved;
        trials_.update(ctx, bee, [](std::uint32_t &v) { ++v; });
        // Scout: abandon an exhausted source.
        if (trials_.host(bee) > p_.scoutLimit) {
            for (unsigned dd = 0; dd < p_.dims; ++dd)
                solutions_.write(ctx, bee * p_.dims + dd,
                                 ctx.rng().nextDouble());
            trials_.write(ctx, bee, 0);
        }
    }
}

bool
AbcWorkload::step(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (beeCursor_[t] >= beeEnd_[t]) {
        if (stage_[t] >= 2)
            return false;
        ++stage_[t];
        const WorkRange r = WorkRange::of(p_.colony, ctx.numThreads(), t);
        beeCursor_[t] = r.begin;
        beeEnd_[t] = r.end;
        return true;
    }

    const auto bee = static_cast<unsigned>(beeCursor_[t]++);
    if (stage_[t] == 0) {
        // Ingest: derive this bee's slice of the cost field from the
        // shared VISION frame.
        const std::size_t n = costField_.size();
        const WorkRange r = WorkRange::of(n, p_.colony, bee);
        vision_.frame().scan(ctx, r.begin, r.size(), MemOp::LOAD);
        for (std::size_t i = r.begin; i < r.end; ++i)
            costField_.host(i) = vision_.frame().host(i) >> 24;
        costField_.scan(ctx, r.begin, r.size(), MemOp::STORE);
        fitness_.write(ctx, bee, evaluate(ctx, bee));
    } else if (stage_[t] == 1) {
        perturb(ctx, bee); // employed bee
    } else {
        // Onlooker: fitness-proportional choice, then perturb.
        const unsigned pick = static_cast<unsigned>(
            ctx.rng().nextRange(p_.colony));
        const unsigned alt = static_cast<unsigned>(
            ctx.rng().nextRange(p_.colony));
        const double fp = fitness_.read(ctx, pick);
        const double fa = fitness_.read(ctx, alt);
        perturb(ctx, fp >= fa ? pick : alt);
    }
    return true;
}

} // namespace ih
