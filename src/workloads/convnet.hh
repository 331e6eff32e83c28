/**
 * @file
 * Secure perception networks: direct-convolution CNN inference with
 * AlexNet-shaped and SqueezeNet-shaped layer stacks (scaled to simulator
 * throughput; the fire modules of SqueezeNet are expressed as
 * squeeze/expand convolution pairs writing disjoint channel ranges).
 *
 * Threads cooperate within each layer (output rows are claimed from a
 * shared cursor) and spin at layer boundaries — the barrier behaviour of
 * a real parallel inference runtime.
 *
 * No activation or weight value steers the simulation: every loop
 * bound and address comes from the layer shapes. So the tensors are
 * address-only SimRegions, scanned at cache-line granularity, and the
 * conv/pool/FC arithmetic is modelled by its compute() charge (one
 * instruction per four multiply-adds or compares) instead of being
 * evaluated on the host.
 */

#ifndef IH_WORKLOADS_CONVNET_HH
#define IH_WORKLOADS_CONVNET_HH

#include "workloads/vision.hh"
#include "workloads/workload.hh"

namespace ih
{

/** One layer of the network. */
struct LayerSpec
{
    enum Kind : std::uint8_t { CONV, POOL, FC } kind;
    unsigned inW, inH, inC;
    unsigned outC;
    unsigned kernel;   ///< conv: kernel size; pool: window
    unsigned outChanBase = 0; ///< channel offset (fire-module concat)

    unsigned outW() const;
    unsigned outH() const;
    std::size_t inSize() const
    {
        return static_cast<std::size_t>(inW) * inH * inC;
    }
    std::size_t outSize() const;
    std::size_t weightCount() const;
    /** Parallel work items in this layer. */
    unsigned items() const;
};

/** Network shapes evaluated in the paper. */
std::vector<LayerSpec> alexnetLayers(double scale);
std::vector<LayerSpec> squeezenetLayers(double scale);

/** CNN inference consumer over the VISION frame. */
class ConvNetWorkload : public InteractiveWorkload
{
  public:
    ConvNetWorkload(VisionWorkload &vision, std::vector<LayerSpec> layers);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

  private:
    void processConvItem(ExecContext &ctx, const LayerSpec &l,
                         unsigned row);
    void processPoolItem(ExecContext &ctx, const LayerSpec &l,
                         unsigned row);
    void processFcItem(ExecContext &ctx, const LayerSpec &l,
                       unsigned group);

    /** Does layer @p i read the same buffer layer i-1 wrote? (fire
     *  expand pairs share their input). */
    bool sharesInputWithPrev(std::size_t i) const;

    VisionWorkload &vision_;
    std::vector<LayerSpec> layers_;
    SimRegion<float> act_[2];       ///< ping-pong activation buffers
    SimRegion<float> weights_;      ///< all layers, concatenated
    std::vector<std::size_t> wOff_; ///< per-layer weight offset
    std::vector<unsigned> bufOfLayerInput_;

    // Per-interaction execution state.
    unsigned curLayer_ = 0;
    unsigned itemsDone_ = 0;
    unsigned nextItem_ = 0;
    bool ingestDone_ = false;
    unsigned ingestNext_ = 0;
};

} // namespace ih

#endif // IH_WORKLOADS_CONVNET_HH
