#include "workloads/convnet.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace ih
{

unsigned
LayerSpec::outW() const
{
    switch (kind) {
      case CONV: return inW; // same-padding, stride 1
      case POOL: return inW / kernel;
      case FC: return 1;
    }
    return 1;
}

unsigned
LayerSpec::outH() const
{
    switch (kind) {
      case CONV: return inH;
      case POOL: return inH / kernel;
      case FC: return 1;
    }
    return 1;
}

std::size_t
LayerSpec::outSize() const
{
    return static_cast<std::size_t>(outW()) * outH() * outC;
}

std::size_t
LayerSpec::weightCount() const
{
    switch (kind) {
      case CONV:
        return static_cast<std::size_t>(outC) * inC * kernel * kernel;
      case POOL:
        return 0;
      case FC:
        return inSize() * outC;
    }
    return 0;
}

unsigned
LayerSpec::items() const
{
    switch (kind) {
      case CONV:
      case POOL:
        return outH();
      case FC:
        return (outC + 7) / 8;
    }
    return 0;
}

std::vector<LayerSpec>
alexnetLayers(double scale)
{
    const auto d = [&](unsigned v, unsigned min) {
        return std::max(min, static_cast<unsigned>(v * scale));
    };
    const unsigned s = d(48, 16);
    std::vector<LayerSpec> l;
    l.push_back({LayerSpec::CONV, s, s, 3, d(8, 2), 5, 0});
    l.push_back({LayerSpec::POOL, s, s, d(8, 2), d(8, 2), 2, 0});
    l.push_back({LayerSpec::CONV, s / 2, s / 2, d(8, 2), d(16, 4), 3, 0});
    l.push_back({LayerSpec::POOL, s / 2, s / 2, d(16, 4), d(16, 4), 2, 0});
    l.push_back({LayerSpec::CONV, s / 4, s / 4, d(16, 4), d(16, 4), 3, 0});
    l.push_back({LayerSpec::FC, s / 4, s / 4, d(16, 4), d(64, 16), 0, 0});
    l.push_back({LayerSpec::FC, d(64, 16), 1, 1, 10, 0, 0});
    return l;
}

std::vector<LayerSpec>
squeezenetLayers(double scale)
{
    const auto d = [&](unsigned v, unsigned min) {
        return std::max(min, static_cast<unsigned>(v * scale));
    };
    const unsigned s = d(48, 16);
    std::vector<LayerSpec> l;
    l.push_back({LayerSpec::CONV, s, s, 3, d(8, 2), 3, 0});
    l.push_back({LayerSpec::POOL, s, s, d(8, 2), d(8, 2), 2, 0});
    // Fire module: squeeze 1x1, then expand 1x1 and expand 3x3 writing
    // disjoint halves of the output channels (both read the squeeze
    // output).
    l.push_back({LayerSpec::CONV, s / 2, s / 2, d(8, 2), d(3, 1), 1, 0});
    l.push_back({LayerSpec::CONV, s / 2, s / 2, d(3, 1), d(8, 2), 1, 0});
    l.push_back({LayerSpec::CONV, s / 2, s / 2, d(3, 1), d(8, 2), 3,
                 d(8, 2)});
    l.push_back({LayerSpec::POOL, s / 2, s / 2, d(16, 4), d(16, 4), 2, 0});
    l.push_back({LayerSpec::FC, s / 4, s / 4, d(16, 4), 10, 0, 0});
    return l;
}

ConvNetWorkload::ConvNetWorkload(VisionWorkload &vision,
                                 std::vector<LayerSpec> layers)
    : vision_(vision), layers_(std::move(layers))
{
    IH_ASSERT(!layers_.empty(), "empty network");
}

bool
ConvNetWorkload::sharesInputWithPrev(std::size_t i) const
{
    // A layer with a nonzero output channel base is the second expand
    // conv of a fire module: it reads the same input as its predecessor
    // and writes the same output buffer.
    return layers_[i].outChanBase != 0;
}

void
ConvNetWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    (void)ipc;
    // Ping-pong buffer assignment honouring fire-module sharing.
    std::size_t max_elems = layers_[0].inSize();
    bufOfLayerInput_.resize(layers_.size() + 1);
    bufOfLayerInput_[0] = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        unsigned in_buf = bufOfLayerInput_[i];
        unsigned out_buf = 1 - in_buf;
        if (sharesInputWithPrev(i)) {
            in_buf = bufOfLayerInput_[i - 1];
            out_buf = 1 - in_buf;
        }
        bufOfLayerInput_[i] = in_buf;
        bufOfLayerInput_[i + 1] = out_buf;
        max_elems = std::max({max_elems, layers_[i].inSize(),
                              layers_[i].outSize() +
                                  static_cast<std::size_t>(
                                      layers_[i].outChanBase) *
                                      layers_[i].outW() * layers_[i].outH()});
    }

    act_[0].init(proc, max_elems, 0.0f);
    act_[1].init(proc, max_elems, 0.0f);

    std::size_t total_w = 0;
    for (const auto &l : layers_) {
        wOff_.push_back(total_w);
        total_w += l.weightCount();
    }
    weights_.init(proc, std::max<std::size_t>(1, total_w));
    Rng wrng(0xCAFE + weights_.size());
    for (std::size_t i = 0; i < weights_.size(); ++i)
        weights_.host(i) =
            static_cast<float>(wrng.nextDouble() - 0.5) * 0.25f;
}

void
ConvNetWorkload::beginPhase(PhaseKind kind, std::uint64_t interaction,
                            unsigned num_threads)
{
    IH_ASSERT(kind == PhaseKind::CONSUME, "CNNs are consumers");
    (void)interaction;
    (void)num_threads;
    curLayer_ = 0;
    itemsDone_ = 0;
    nextItem_ = 0;
    ingestDone_ = false;
    ingestNext_ = 0;
}

bool
ConvNetWorkload::step(ExecContext &ctx)
{
    // Stage 0: ingest the shared frame into the input activations.
    if (!ingestDone_) {
        const std::size_t n =
            std::min<std::size_t>(layers_[0].inSize(),
                                  vision_.frame().size());
        const unsigned chunks = static_cast<unsigned>((n + 255) / 256);
        if (ingestNext_ < chunks) {
            const unsigned c = ingestNext_++;
            const std::size_t b = static_cast<std::size_t>(c) * 256;
            const std::size_t cnt = std::min<std::size_t>(256, n - b);
            vision_.frame().scan(ctx, b, cnt, MemOp::LOAD);
            const std::uint32_t *const fp = vision_.frame().hostData();
            float *const ap = act_[0].hostData();
            for (std::size_t i = b; i < b + cnt; ++i)
                ap[i] = static_cast<float>(fp[i] & 0x3FF) / 1024.0f;
            act_[0].scan(ctx, b, cnt, MemOp::STORE);
            ctx.compute(cnt);
            if (ingestNext_ == chunks)
                ingestDone_ = true;
            return true;
        }
        // Another thread is finishing the last chunk: spin.
        ctx.compute(40);
        return true;
    }

    if (curLayer_ >= layers_.size())
        return false;

    const LayerSpec &l = layers_[curLayer_];
    if (nextItem_ >= l.items()) {
        // No unclaimed work; if the layer is incomplete, spin-wait at
        // the layer barrier, otherwise advance.
        if (itemsDone_ < l.items()) {
            ctx.compute(40);
            return true;
        }
        ++curLayer_;
        nextItem_ = 0;
        itemsDone_ = 0;
        return curLayer_ < layers_.size();
    }

    const unsigned item = nextItem_++;
    switch (l.kind) {
      case LayerSpec::CONV:
        processConvItem(ctx, l, item);
        break;
      case LayerSpec::POOL:
        processPoolItem(ctx, l, item);
        break;
      case LayerSpec::FC:
        processFcItem(ctx, l, item);
        break;
    }
    ++itemsDone_;
    return true;
}

void
ConvNetWorkload::processConvItem(ExecContext &ctx, const LayerSpec &l,
                                 unsigned row)
{
    SimArray<float> &in = act_[bufOfLayerInput_[curLayer_]];
    SimArray<float> &out = act_[bufOfLayerInput_[curLayer_ + 1]];
    const unsigned k = l.kernel;
    const unsigned half = k / 2;
    const std::size_t in_row = static_cast<std::size_t>(l.inW) * l.inC;

    // Read the k input rows feeding this output row.
    for (unsigned dy = 0; dy < k; ++dy) {
        const unsigned y = static_cast<unsigned>(std::clamp<int>(
            static_cast<int>(row) + static_cast<int>(dy) -
                static_cast<int>(half),
            0, static_cast<int>(l.inH) - 1));
        in.scan(ctx, y * in_row, in_row, MemOp::LOAD);
    }
    // Weights of all filters.
    weights_.scan(ctx, wOff_[curLayer_], l.weightCount(), MemOp::LOAD);

    // Host-side math: direct convolution of this row. The loop nest is
    // the reference dy -> dx -> ic accumulation order (bit-identical
    // floating-point results); all index arithmetic that is invariant in
    // the inner loops is hoisted, and the row/weight bases are carried as
    // raw pointers instead of re-derived per element.
    const unsigned out_w = l.outW();
    const unsigned out_c = l.outC;
    const unsigned in_c = l.inC;
    const unsigned in_w = l.inW;
    const unsigned kk = k * k;
    const float *const in_p = in.hostData();
    const float *const w_p = weights_.hostData() + wOff_[curLayer_];
    // Valid input rows of this output row: dy in [dy_lo, dy_hi).
    const unsigned dy_lo = row < half ? half - row : 0;
    const unsigned dy_hi = std::min<unsigned>(k, l.inH + half - row);
    float *const out_row_p =
        out.hostData() +
        (static_cast<std::size_t>(row) * out_w) * (out_c + l.outChanBase) +
        l.outChanBase;
    for (unsigned x = 0; x < out_w; ++x) {
        // Valid kernel columns at x: dx in [dx_lo, dx_hi).
        const unsigned dx_lo = x < half ? half - x : 0;
        const unsigned dx_hi = std::min<unsigned>(k, in_w + half - x);
        // Input element at (row - half + dy_lo, x - half + dx_lo).
        const float *const in_base =
            in_p + (static_cast<std::size_t>(row - half + dy_lo) * in_w +
                    (x - half + dx_lo)) *
                       in_c;
        for (unsigned c = 0; c < out_c; ++c) {
            const float *const w_c =
                w_p + static_cast<std::size_t>(c) * in_c * kk;
            float acc = 0.0f;
            const float *in_row_p = in_base;
            for (unsigned dy = dy_lo; dy < dy_hi; ++dy) {
                const float *in_px = in_row_p;
                const float *w_px = w_c + dy * k + dx_lo;
                for (unsigned dx = dx_lo; dx < dx_hi; ++dx) {
                    const float *wv = w_px;
                    for (unsigned ic = 0; ic < in_c; ++ic) {
                        acc += in_px[ic] * *wv;
                        wv += kk;
                    }
                    in_px += in_c;
                    ++w_px;
                }
                in_row_p += static_cast<std::size_t>(in_w) * in_c;
            }
            // ReLU.
            out_row_p[static_cast<std::size_t>(x) * (out_c +
                                                     l.outChanBase) +
                      c] = std::max(0.0f, acc);
        }
    }
    const std::size_t out_cnt =
        static_cast<std::size_t>(l.outW()) * l.outC;
    out.scan(ctx,
             static_cast<std::size_t>(row) * l.outW() *
                 (l.outC + l.outChanBase),
             out_cnt, MemOp::STORE);
    ctx.compute(static_cast<std::uint64_t>(l.outW()) * l.outC * k * k *
                l.inC / 4);
}

void
ConvNetWorkload::processPoolItem(ExecContext &ctx, const LayerSpec &l,
                                 unsigned row)
{
    SimArray<float> &in = act_[bufOfLayerInput_[curLayer_]];
    SimArray<float> &out = act_[bufOfLayerInput_[curLayer_ + 1]];
    const unsigned k = l.kernel;
    const std::size_t in_row = static_cast<std::size_t>(l.inW) * l.inC;
    for (unsigned dy = 0; dy < k; ++dy)
        in.scan(ctx, (static_cast<std::size_t>(row) * k + dy) * in_row,
                in_row, MemOp::LOAD);
    // Host-side max pooling with the window/row bases hoisted and carried
    // as pointers (same dy -> dx visit order as the reference loop).
    const unsigned out_w = l.outW();
    const unsigned out_c = l.outC;
    const unsigned in_c = l.inC;
    const float *const win_base =
        in.hostData() + static_cast<std::size_t>(row) * k * in_row;
    float *const out_row_p =
        out.hostData() + static_cast<std::size_t>(row) * out_w * out_c;
    for (unsigned x = 0; x < out_w; ++x) {
        const float *const col_base =
            win_base + static_cast<std::size_t>(x) * k * in_c;
        for (unsigned c = 0; c < out_c; ++c) {
            float m = -1e30f;
            const float *rp = col_base + c;
            for (unsigned dy = 0; dy < k; ++dy) {
                const float *pp = rp;
                for (unsigned dx = 0; dx < k; ++dx) {
                    m = std::max(m, *pp);
                    pp += in_c;
                }
                rp += in_row;
            }
            out_row_p[static_cast<std::size_t>(x) * out_c + c] = m;
        }
    }
    out.scan(ctx,
             static_cast<std::size_t>(row) * out_w * out_c,
             static_cast<std::size_t>(out_w) * out_c, MemOp::STORE);
    ctx.compute(static_cast<std::uint64_t>(out_w) * out_c * k * k / 4);
}

void
ConvNetWorkload::processFcItem(ExecContext &ctx, const LayerSpec &l,
                               unsigned group)
{
    SimArray<float> &in = act_[bufOfLayerInput_[curLayer_]];
    SimArray<float> &out = act_[bufOfLayerInput_[curLayer_ + 1]];
    const std::size_t n_in = l.inSize();
    const unsigned c0 = group * 8;
    const unsigned c1 = std::min(l.outC, c0 + 8);

    in.scan(ctx, 0, n_in, MemOp::LOAD);
    weights_.scan(ctx, wOff_[curLayer_] + static_cast<std::size_t>(c0) *
                                              n_in,
                  static_cast<std::size_t>(c1 - c0) * n_in, MemOp::LOAD);
    // Host-side dot products over raw pointers (same i order as the
    // reference loop; the weight row base advances once per neuron).
    const float *const in_p = in.hostData();
    const float *w_row = weights_.hostData() + wOff_[curLayer_] +
                         static_cast<std::size_t>(c0) * n_in;
    float *const out_p = out.hostData();
    for (unsigned c = c0; c < c1; ++c) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n_in; ++i)
            acc += in_p[i] * w_row[i];
        out_p[c] = std::max(0.0f, acc);
        w_row += n_in;
    }
    out.scan(ctx, c0, c1 - c0, MemOp::STORE);
    ctx.compute(static_cast<std::uint64_t>(c1 - c0) * n_in / 4);
}

float
ConvNetWorkload::outputOf(std::size_t i) const
{
    return act_[bufOfLayerInput_[layers_.size()]].host(i);
}

} // namespace ih
