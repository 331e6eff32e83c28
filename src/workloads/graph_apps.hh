/**
 * @file
 * The real-time graph-processing interactive application.
 *
 * Insecure side: GRAPH, a temporal graph-update generator that reads
 * distributed sensor values and emits edge-weight updates for the static
 * road network through the shared IPC buffer.
 *
 * Secure side: one of three CRONO-style safety-critical decision
 * analytics kernels consuming the spatio-temporally updated graph:
 *  - SSSP: incremental single-source shortest paths (Bellman-Ford style
 *    relaxation seeded by the updated edges),
 *  - PR:   PageRank (one damped power iteration per interaction),
 *  - TC:   triangle counting over a rotating vertex window, with the
 *    heavy synchronization of the shared-counter implementation (which
 *    is why the paper's predictor gives it only two cores).
 */

#ifndef IH_WORKLOADS_GRAPH_APPS_HH
#define IH_WORKLOADS_GRAPH_APPS_HH

#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace ih
{

/** Sizing knobs for the graph application family. */
struct GraphAppParams
{
    unsigned gridW = 128;
    unsigned gridH = 128;
    double shortcutFrac = 0.15;
    unsigned updatesPerInteraction = 256;
    unsigned ssspRelaxCap = 24000;  ///< max edge relaxations/interaction
    unsigned tcWindow = 96;         ///< vertices examined/interaction

    /** Scale every size by @p s (bench/test shrinking). */
    GraphAppParams scaled(double s) const;
};

/** Insecure temporal-update generator (GRAPH). */
class GraphGenWorkload : public InteractiveWorkload
{
  public:
    GraphGenWorkload(const GraphAppParams &p, std::uint64_t seed);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

    /** The static graph template (the secure side copies it). */
    const Csr &staticGraph() const { return graph_; }

    /** Shared update stream (edge index / new weight pairs). */
    SimArray<EdgeUpdate> &updates() { return updates_; }

  private:
    GraphAppParams p_;
    Rng rng_;
    Csr graph_;
    SimArray<std::uint32_t> sensors_;   ///< private sensor readings
    SimArray<EdgeUpdate> updates_;      ///< IPC: the update stream
    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> limit_;
};

/** Common state of the secure graph consumers. */
class GraphConsumerBase : public InteractiveWorkload
{
  public:
    GraphConsumerBase(GraphGenWorkload &gen, const GraphAppParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

  protected:
    /** Apply this thread's share of pending IPC updates; true if more. */
    bool applyUpdatesStep(ExecContext &ctx);

    /** Algorithm-specific per-thread unit; false when phase work done. */
    virtual bool algoStep(ExecContext &ctx) = 0;

    /** Algorithm-specific phase reset. */
    virtual void algoBegin(std::uint64_t interaction,
                           unsigned num_threads) = 0;

    GraphGenWorkload &gen_;
    GraphAppParams p_;
    // Secure-side copy of the graph.
    SimArray<std::uint32_t> rowOff_;
    SimArray<std::uint32_t> col_;
    SimArray<std::uint32_t> weight_;
    unsigned numThreads_ = 1;
    std::vector<std::size_t> updCursor_;
    std::vector<std::size_t> updLimit_;
    std::vector<bool> applying_;
};

/** Incremental single-source shortest paths (SSSP). */
class SsspWorkload : public GraphConsumerBase
{
  public:
    SsspWorkload(GraphGenWorkload &gen, const GraphAppParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;

    /** Host-side distance readback (for correctness tests). */
    std::uint32_t distanceOf(std::uint32_t v) const
    {
        return dist_.host(v);
    }

  protected:
    void algoBegin(std::uint64_t interaction, unsigned num_threads)
        override;
    bool algoStep(ExecContext &ctx) override;

  private:
    SimArray<std::uint32_t> dist_;
    std::vector<std::vector<std::uint32_t>> frontier_; ///< per thread
    std::vector<unsigned> budget_;
};

/** PageRank: one damped power iteration per interaction. */
class PageRankWorkload : public GraphConsumerBase
{
  public:
    PageRankWorkload(GraphGenWorkload &gen, const GraphAppParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;

  protected:
    void algoBegin(std::uint64_t interaction, unsigned num_threads)
        override;
    bool algoStep(ExecContext &ctx) override;

  private:
    // No rank value steers the simulation (the edge walk's bounds come
    // from rowOff_), so the rank vectors are address-only.
    SimRegion<double> rank_;
    SimRegion<double> nextRank_;
    std::vector<std::size_t> vCursor_;
    std::vector<std::size_t> vEnd_;
};

/** Triangle counting over a rotating vertex window (sync-heavy). */
class TriCountWorkload : public GraphConsumerBase
{
  public:
    TriCountWorkload(GraphGenWorkload &gen, const GraphAppParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;

    std::uint64_t triangles() const { return triangles_; }

  protected:
    void algoBegin(std::uint64_t interaction, unsigned num_threads)
        override;
    bool algoStep(ExecContext &ctx) override;

  private:
    std::vector<std::size_t> vCursor_;
    std::vector<std::size_t> vEnd_;
    std::uint64_t windowStart_ = 0;
    std::uint64_t triangles_ = 0;
};

} // namespace ih

#endif // IH_WORKLOADS_GRAPH_APPS_HH
