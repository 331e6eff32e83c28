#include "cpu/exec_engine.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

ExecContext::ExecContext(ExecEngine &engine, Process &proc,
                         unsigned thread_index, unsigned num_threads,
                         CoreId core, Cycle now)
    : engine_(&engine), proc_(&proc), threadIndex_(thread_index),
      numThreads_(num_threads), core_(core), now_(now)
{
}

AccessResult
ExecContext::accessShared(AddressSpace &space, VAddr va, MemOp op)
{
    // IPC traffic crosses clusters by design; give it machine scope so
    // the isolation checker does not flag it.
    const ClusterRange whole{0, engine_->mem_.numTiles()};
    const AccessResult r =
        engine_->mem_.access(core_, space, va, op, now_, whole);
    now_ = r.finish;
    ++instructions_;
    engine_->statIpcAccesses_.inc();
    return r;
}

void
ExecContext::compute(std::uint64_t n)
{
    now_ += n; // 1 IPC
    instructions_ += n;
}

void
ExecContext::sync()
{
    now_ += ExecEngine::SYNC_BASE +
            static_cast<Cycle>(numThreads_) * ExecEngine::SYNC_PER_THREAD;
    ++instructions_;
    engine_->statSyncs_.inc();
}

Rng &
ExecContext::rng()
{
    return proc_->rng();
}

ExecEngine::ExecEngine(const SysConfig &cfg, MemorySystem &mem)
    : cfg_(cfg), mem_(mem), stats_("engine"),
      statIpcAccesses_(stats_.counter("ipc_accesses")),
      statSyncs_(stats_.counter("syncs")),
      statPhases_(stats_.counter("phases")),
      coreFree_(mem.numTiles(), 0)
{
    for (CoreId c = 0; c < mem.numTiles(); ++c)
        cores_.push_back(std::make_unique<Core>(c));
}

PhaseResult
ExecEngine::runPhase(Process &proc, SteppableTask &task, Cycle start)
{
    const std::vector<CoreId> &cores = proc.cores();
    IH_ASSERT(!cores.empty(), "process '%s' has no cores assigned",
              proc.name().c_str());
    // The application's software thread count is fixed; when a process
    // has more threads than assigned cores, co-located threads
    // time-multiplex their core (a core runs one thread at a time).
    const unsigned n_threads = proc.requestedThreads();

    // Pooled context arena: re-initialized in place each phase, so after
    // the first phase at the high-water thread count no per-phase heap
    // allocation remains. The (time, thread-index) service order below
    // is untouched by the reuse.
    ctxPool_.clear();
    ctxPool_.reserve(n_threads);
    for (unsigned i = 0; i < n_threads; ++i)
        ctxPool_.emplace_back(*this, proc, i, n_threads,
                              cores[i % cores.size()], start);

    // Per-core availability for the multiplexing model: a flat array
    // indexed by CoreId (only this phase's cores are (re)initialized, so
    // stale entries from earlier phases are never read).
    for (CoreId c : cores)
        coreFree_[c] = start;

    // Min-heap of runnable threads ordered by (local time, thread index),
    // kept in a member vector so phases reuse its capacity. The pair
    // comparison breaks time ties by thread index, so the service order
    // is fully deterministic.
    using Entry = std::pair<Cycle, unsigned>;
    const auto heap_cmp = std::greater<Entry>{};
    heap_.clear();
    for (unsigned i = 0; i < n_threads; ++i)
        heap_.emplace_back(start, i);
    std::make_heap(heap_.begin(), heap_.end(), heap_cmp);

    PhaseResult res;
    res.finish = start;
    while (!heap_.empty()) {
        const auto [t, idx] = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
        heap_.pop_back();
        ExecContext &ctx = ctxPool_[idx];
        // Wait for the core: co-located threads serialize.
        Cycle &free_at = coreFree_[ctx.core()];
        if (free_at > t) {
            ctx.now_ = free_at;
            heap_.emplace_back(ctx.now_, idx);
            std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
            continue;
        }
        const bool more = task.step(ctx);
        free_at = ctx.now_;
        ++res.steps;
        if (more) {
            heap_.emplace_back(ctx.now_, idx);
            std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
        } else {
            res.finish = std::max(res.finish, ctx.now_);
            core(ctx.core()).noteBusyUntil(ctx.now_);
            core(ctx.core()).retire(ctx.instructions_);
            res.instructions += ctx.instructions_;
        }
    }

    proc.stats().counter("instructions").inc(res.instructions);
    proc.stats().counter("phases").inc();
    statPhases_.inc();
    return res;
}

} // namespace ih
