#include "workloads/graph_apps.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

GraphAppParams
GraphAppParams::scaled(double s) const
{
    GraphAppParams out = *this;
    auto sc = [&](unsigned v) {
        return std::max(4u, static_cast<unsigned>(v * s));
    };
    out.gridW = sc(gridW);
    out.gridH = sc(gridH);
    out.updatesPerInteraction = sc(updatesPerInteraction);
    out.ssspRelaxCap = sc(ssspRelaxCap);
    out.tcWindow = sc(tcWindow);
    return out;
}

// ---------------------------------------------------------------------------
// GRAPH: temporal update generator (insecure producer)
// ---------------------------------------------------------------------------

GraphGenWorkload::GraphGenWorkload(const GraphAppParams &p,
                                   std::uint64_t seed)
    : p_(p), rng_(seed)
{
    graph_ = RoadGraphGen(p_.gridW, p_.gridH, p_.shortcutFrac, seed).build();
}

void
GraphGenWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    // One virtual sensor per grid row; readings drive the weight updates.
    sensors_.init(proc, p_.gridH, 50);
    updates_.initShared(ipc, p_.updatesPerInteraction);
}

void
GraphGenWorkload::beginPhase(PhaseKind kind, std::uint64_t interaction,
                             unsigned num_threads)
{
    IH_ASSERT(kind == PhaseKind::PRODUCE,
              "GRAPH is the producer; it has no consume phase");
    (void)interaction;
    cursor_.assign(num_threads, 0);
    limit_.assign(num_threads, 0);
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r =
            WorkRange::of(p_.updatesPerInteraction, num_threads, t);
        cursor_[t] = r.begin;
        limit_[t] = r.end;
    }
}

bool
GraphGenWorkload::step(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (cursor_[t] >= limit_[t])
        return false;

    // Generate a small batch of updates per step. Loop-invariant sizes
    // are hoisted so the per-update work is just the rng draws and the
    // simulated accesses.
    const std::size_t batch =
        std::min<std::size_t>(16, limit_[t] - cursor_[t]);
    const std::size_t num_sensors = sensors_.size();
    const std::uint32_t num_edges = graph_.numEdges();
    Rng &rng = ctx.rng();
    for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t u = cursor_[t]++;
        // Read the sensor covering a random row, derive a new weight.
        const auto sensor = rng.nextRange(num_sensors);
        const std::uint32_t reading = sensors_.read(ctx, sensor);
        const auto edge = static_cast<std::uint32_t>(
            rng.nextRange(num_edges));
        const auto wgt = static_cast<std::uint32_t>(
            10 + (reading + ctx.rng().nextRange(90)) % 190);
        ctx.compute(24); // sensor fusion arithmetic
        updates_.write(ctx, u, EdgeUpdate{edge, wgt});
        // Drift the sensor reading.
        sensors_.update(ctx, sensor, [&](std::uint32_t &v) {
            v = (v * 7 + 13) % 100;
        });
    }
    return cursor_[t] < limit_[t];
}

// ---------------------------------------------------------------------------
// Secure consumer base: copy of the graph + update application
// ---------------------------------------------------------------------------

GraphConsumerBase::GraphConsumerBase(GraphGenWorkload &gen,
                                     const GraphAppParams &p)
    : gen_(gen), p_(p)
{
}

void
GraphConsumerBase::setup(Process &proc, IpcBuffer &ipc)
{
    (void)ipc;
    const Csr &g = gen_.staticGraph();
    rowOff_.init(proc, g.rowOff.size());
    col_.init(proc, g.col.size());
    weight_.init(proc, g.weight.size());
    for (std::size_t i = 0; i < g.rowOff.size(); ++i)
        rowOff_.host(i) = g.rowOff[i];
    for (std::size_t i = 0; i < g.col.size(); ++i) {
        col_.host(i) = g.col[i];
        weight_.host(i) = g.weight[i];
    }
}

void
GraphConsumerBase::beginPhase(PhaseKind kind, std::uint64_t interaction,
                              unsigned num_threads)
{
    IH_ASSERT(kind == PhaseKind::CONSUME,
              "graph kernels are consumers; no produce phase");
    numThreads_ = num_threads;
    updCursor_.assign(num_threads, 0);
    updLimit_.assign(num_threads, 0);
    applying_.assign(num_threads, true);
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(gen_.updates().size(),
                                          num_threads, t);
        updCursor_[t] = r.begin;
        updLimit_[t] = r.end;
    }
    algoBegin(interaction, num_threads);
}

bool
GraphConsumerBase::applyUpdatesStep(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (updCursor_[t] >= updLimit_[t])
        return false;
    const std::size_t batch =
        std::min<std::size_t>(16, updLimit_[t] - updCursor_[t]);
    for (std::size_t i = 0; i < batch; ++i) {
        const EdgeUpdate upd = gen_.updates().read(ctx, updCursor_[t]++);
        if (upd.edgeIndex < weight_.size())
            weight_.write(ctx, upd.edgeIndex, upd.newWeight);
        ctx.compute(6);
    }
    return updCursor_[t] < updLimit_[t];
}

bool
GraphConsumerBase::step(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (applying_[t]) {
        if (applyUpdatesStep(ctx))
            return true;
        applying_[t] = false;
        return true; // algorithm work starts on the next step
    }
    return algoStep(ctx);
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

SsspWorkload::SsspWorkload(GraphGenWorkload &gen, const GraphAppParams &p)
    : GraphConsumerBase(gen, p)
{
}

void
SsspWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    GraphConsumerBase::setup(proc, ipc);
    const std::uint32_t v = gen_.staticGraph().numVertices();
    dist_.init(proc, v, 0xFFFFFFFFu);
    dist_.host(0) = 0; // source vertex
}

void
SsspWorkload::algoBegin(std::uint64_t interaction, unsigned num_threads)
{
    (void)interaction;
    frontier_.assign(num_threads, {});
    budget_.assign(num_threads,
                   p_.ssspRelaxCap / std::max(1u, num_threads));
    // Seed each thread's frontier with the sources of its update share
    // (endpoints of changed edges) plus the global source for thread 0.
    const Csr &g = gen_.staticGraph();
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(gen_.updates().size(),
                                          num_threads, t);
        for (std::size_t i = r.begin; i < r.end; ++i) {
            const EdgeUpdate &upd = gen_.updates().host(i);
            // Find the edge's source vertex via binary search on rowOff.
            const auto it = std::upper_bound(g.rowOff.begin(),
                                             g.rowOff.end(),
                                             upd.edgeIndex);
            const auto src = static_cast<std::uint32_t>(
                std::distance(g.rowOff.begin(), it) - 1);
            frontier_[t].push_back(src);
        }
    }
    frontier_[0].push_back(0);
}

bool
SsspWorkload::algoStep(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    auto &q = frontier_[t];
    if (q.empty() || budget_[t] == 0)
        return false;

    const std::uint32_t u = q.back();
    q.pop_back();

    const std::uint32_t beg = rowOff_.read(ctx, u);
    const std::uint32_t end = rowOff_.read(ctx, u + 1);
    const std::uint32_t du = dist_.read(ctx, u);
    if (du == 0xFFFFFFFFu)
        return !q.empty() && budget_[t] > 0;

    for (std::uint32_t e = beg; e < end && budget_[t] > 0; ++e) {
        --budget_[t];
        const std::uint32_t v = col_.read(ctx, e);
        const std::uint32_t w = weight_.read(ctx, e);
        const std::uint32_t dv = dist_.read(ctx, v);
        ctx.compute(4);
        if (du + w < dv) {
            dist_.write(ctx, v, du + w);
            q.push_back(v);
        }
    }
    return !q.empty() && budget_[t] > 0;
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

PageRankWorkload::PageRankWorkload(GraphGenWorkload &gen,
                                   const GraphAppParams &p)
    : GraphConsumerBase(gen, p)
{
}

void
PageRankWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    GraphConsumerBase::setup(proc, ipc);
    const std::uint32_t v = gen_.staticGraph().numVertices();
    rank_.init(proc, v);
    nextRank_.init(proc, v);
}

void
PageRankWorkload::algoBegin(std::uint64_t interaction,
                            unsigned num_threads)
{
    (void)interaction;
    vCursor_.assign(num_threads, 0);
    vEnd_.assign(num_threads, 0);
    const std::uint32_t v = gen_.staticGraph().numVertices();
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(v, num_threads, t);
        vCursor_[t] = r.begin;
        vEnd_[t] = r.end;
    }
}

bool
PageRankWorkload::algoStep(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (vCursor_[t] >= vEnd_[t])
        return false;

    const std::size_t batch = std::min<std::size_t>(8, vEnd_[t] -
                                                           vCursor_[t]);
    for (std::size_t i = 0; i < batch; ++i) {
        const auto u = static_cast<std::uint32_t>(vCursor_[t]++);
        const std::uint32_t beg = rowOff_.read(ctx, u);
        const std::uint32_t end = rowOff_.read(ctx, u + 1);
        rank_.load(ctx, u);
        // Push rank(u) / deg(u) to every out-neighbour.
        for (std::uint32_t e = beg; e < end; ++e) {
            const std::uint32_t v = col_.read(ctx, e);
            nextRank_.update(ctx, v);
            ctx.compute(3);
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Triangle counting
// ---------------------------------------------------------------------------

TriCountWorkload::TriCountWorkload(GraphGenWorkload &gen,
                                   const GraphAppParams &p)
    : GraphConsumerBase(gen, p)
{
}

void
TriCountWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    GraphConsumerBase::setup(proc, ipc);
}

void
TriCountWorkload::algoBegin(std::uint64_t interaction,
                            unsigned num_threads)
{
    (void)interaction;
    const std::uint32_t v = gen_.staticGraph().numVertices();
    vCursor_.assign(num_threads, 0);
    vEnd_.assign(num_threads, 0);
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(p_.tcWindow, num_threads, t);
        vCursor_[t] = (windowStart_ + r.begin) % v;
        vEnd_[t] = vCursor_[t] + r.size();
    }
    windowStart_ = (windowStart_ + p_.tcWindow) % v;
}

bool
TriCountWorkload::algoStep(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (vCursor_[t] >= vEnd_[t])
        return false;

    const std::uint32_t nv = gen_.staticGraph().numVertices();
    const auto u = static_cast<std::uint32_t>(vCursor_[t]++ % nv);

    const std::uint32_t ub = rowOff_.read(ctx, u);
    const std::uint32_t ue = rowOff_.read(ctx, u + 1);
    for (std::uint32_t e = ub; e < ue; ++e) {
        const std::uint32_t v = col_.read(ctx, e);
        if (v <= u)
            continue;
        // Intersect adj(u) and adj(v): the graph traversal is read-once,
        // so TC shows little cache locality.
        const std::uint32_t vb = rowOff_.read(ctx, v);
        const std::uint32_t ve = rowOff_.read(ctx, v + 1);
        std::uint32_t i = ub, j = vb;
        while (i < ue && j < ve) {
            const std::uint32_t a = col_.read(ctx, i);
            const std::uint32_t b = col_.read(ctx, j);
            ctx.compute(2);
            if (a == b) {
                if (a > v)
                    ++triangles_;
                ++i;
                ++j;
            } else if (a < b) {
                ++i;
            } else {
                ++j;
            }
        }
        // Shared triangle counter: the CRONO-style implementation
        // serializes on an atomic here.
        ctx.sync();
    }
    return vCursor_[t] < vEnd_[t];
}

} // namespace ih
