#include "arch/engines.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "algo/int8_quant.h"
#include "fixed/fixed16.h"

namespace hetacc::arch {

namespace {

/// Snaps n values onto one activation grid (`src` may equal `dst`): the i8
/// code grid when `i8` (a round trip through the code, so buffered floats
/// are exactly representable and later re-quantization recovers the same
/// code), the Q(frac) grid when frac >= 0, identity otherwise. The grid is
/// picked once per call, never per value.
void snap_row(bool i8, int frac, float scale, std::int32_t zp,
              const float* src, float* dst, std::size_t n) {
  if (i8) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = algo::dequantize_act_i8(
          algo::quantize_act_i8(src[i], scale, zp), scale, zp);
    }
  } else if (frac >= 0) {
    fixed::quantize_row(src, dst, n, frac);
  } else if (src != dst) {
    std::copy(src, src + n, dst);
  }
}

/// Snaps a row onto the mode's input grid.
void snap_in(const NumericMode& m, const float* src, float* dst,
             std::size_t n) {
  snap_row(m.int8(), m.in_frac, m.in_scale, m.in_zp, src, dst, n);
}

/// Snaps a row onto the mode's output grid.
void snap_out(const NumericMode& m, const float* src, float* dst,
              std::size_t n) {
  snap_row(m.int8(), m.out_frac, m.out_scale, m.out_zp, src, dst, n);
}

/// Common row-ingestion machinery: presents the input as a padded stream of
/// rows held in a circular line buffer. Vertical padding rows are
/// synthesized, horizontal padding is embedded in the buffered row.
class RowWindowBase : public StreamEngine {
 public:
  RowWindowBase(const nn::Layer& layer, int lines, NumericMode mode)
      : layer_(layer), mode_(mode), pad_(layer.padding()),
        padded_w_(layer.in.w + 2 * layer.padding()),
        padded_h_(layer.in.h + 2 * layer.padding()),
        lb_(layer.in.c, layer.in.w + 2 * layer.padding(), lines) {}

  [[nodiscard]] const nn::Layer& layer() const override { return layer_; }
  [[nodiscard]] int line_buffer_lines() const override { return lb_.lines(); }
  [[nodiscard]] bool done() const override {
    return rows_emitted_ == layer_.out.h;
  }

  void reset() override {
    lb_.reset();
    rows_emitted_ = 0;
  }

  void set_fault_injector(const fault::FaultInjector* inj,
                          std::uint64_t stream) override {
    lb_.attach_fault(inj, stream);
  }

  bool step(RowFifo& in, RowFifo& out) override {
    if (done()) return false;
    // Prefer emitting (drains the pipeline) over ingesting; honor the
    // output channel's back-pressure (a wedged channel reads full()).
    if (window_ready() && !out.full()) {
      out.push(emit_row());
      ++rows_emitted_;
      return true;
    }
    if (window_ready()) return false;  // blocked on the output stream
    return ingest(in);
  }

 protected:
  /// Next padded row index still to be pushed into the line buffer.
  [[nodiscard]] long long pushed() const { return lb_.next_row(); }

  bool ingest(RowFifo& in) {
    if (pushed() >= padded_h_) return false;
    const long long padded_row = pushed();
    const bool synthetic =
        padded_row < pad_ || padded_row >= pad_ + layer_.in.h;
    if (synthetic) {
      lb_.push_row(std::vector<float>(
          static_cast<std::size_t>(layer_.in.c) * padded_w_, 0.0f));
      return true;
    }
    if (in.empty()) return false;
    const Row r = in.pop();
    if (static_cast<int>(r.data.size()) != layer_.in.c * layer_.in.w) {
      throw std::runtime_error("engine '" + layer_.name +
                               "': unexpected input row width");
    }
    std::vector<float> padded(
        static_cast<std::size_t>(layer_.in.c) * padded_w_, 0.0f);
    for (int c = 0; c < layer_.in.c; ++c) {
      snap_in(mode_, r.data.data() + static_cast<std::size_t>(c) * layer_.in.w,
              padded.data() + static_cast<std::size_t>(c) * padded_w_ + pad_,
              static_cast<std::size_t>(layer_.in.w));
    }
    lb_.push_row(padded);
    return true;
  }

  /// True when the line buffer holds every padded row the next output row
  /// (or row block) needs.
  [[nodiscard]] virtual bool window_ready() const = 0;
  [[nodiscard]] virtual Row emit_row() = 0;

  const nn::Layer layer_;
  const NumericMode mode_;
  const int pad_;
  const int padded_w_;
  const long long padded_h_;
  CircularLineBuffer lb_;
  int rows_emitted_ = 0;
};

// --------------------------------------------------------------------------
class ConvDirectEngine final : public RowWindowBase {
 public:
  ConvDirectEngine(const nn::Layer& layer, const nn::ConvWeights& w,
                   NumericMode mode,
                   std::shared_ptr<const kernels::PackedLhsF32> packed,
                   std::shared_ptr<const Int8ConvConstants> i8c)
      // Paper §4.2: the conventional line buffer has K + S lines.
      : RowWindowBase(layer, layer.conv().kernel + layer.conv().stride, mode),
        bias_(w.bias),
        packed_(std::move(packed)),
        i8c_(std::move(i8c)) {
    const int k = layer.conv().kernel;
    const int kk = layer.in.c * k * k;
    if (mode_.int8()) {
      if (!i8c_) i8c_ = make_int8_conv_constants(layer, w, mode_);
      patch8_.resize(static_cast<std::size_t>(kk) * layer.out.w);
      out8_.resize(static_cast<std::size_t>(layer.out.c) * layer.out.w);
    } else if (!packed_) {
      // Weights packed into GEMM micro-panels once per engine, never per row.
      packed_ = std::make_shared<const kernels::PackedLhsF32>(
          w.filters.data(), layer.out.c, kk, kk);
    }
    patch_.resize(static_cast<std::size_t>(kk) * layer.out.w);
  }

 private:
  [[nodiscard]] bool window_ready() const override {
    const int k = layer_.conv().kernel;
    const int s = layer_.conv().stride;
    return pushed() >= static_cast<long long>(rows_emitted_) * s + k;
  }

  [[nodiscard]] Row emit_row() override {
    const auto& cp = layer_.conv();
    const int k = cp.kernel, s = cp.stride;
    const int ow = layer_.out.w;
    const long long top = static_cast<long long>(rows_emitted_) * s;

    // Lower this output row's window into an im2col panel: one row per
    // (channel, ku, kv) tap, one column per output pixel.
    std::size_t pr = 0;
    for (int m = 0; m < layer_.in.c; ++m) {
      for (int u = 0; u < k; ++u) {
        const float* src = lb_.row_ptr(m, top + u);
        for (int v = 0; v < k; ++v, ++pr) {
          float* dst = patch_.data() + pr * ow;
          if (s == 1) {
            std::copy(src + v, src + v + ow, dst);
          } else {
            for (int j = 0; j < ow; ++j) dst[j] = src[j * s + v];
          }
        }
      }
    }

    if (mode_.int8()) {
      // Recover the exact i8 codes of the buffered (grid-snapped) patch —
      // synthetic padding rows hold real 0.0, which quantizes to the input
      // zero-point, exactly the pad code im2col would have used — then run
      // the integer datapath: exact i32 accumulation, requantize-on-
      // writeback epilogue, dequantized onto the output grid.
      const std::size_t np = patch_.size();
      for (std::size_t p = 0; p < np; ++p) {
        patch8_[p] = algo::quantize_act_i8(patch_[p], mode_.in_scale,
                                           mode_.in_zp);
      }
      kernels::QuantParams qp;
      qp.scales = i8c_->requant.data();
      qp.per_channel = true;
      qp.bias = i8c_->bias.data();
      qp.zero_point = mode_.out_zp;
      qp.relu = cp.fused_relu;
      kernels::gemm_i8(i8c_->packed, ow, patch8_.data(), ow, out8_.data(),
                       ow, qp, /*threads=*/0);
      Row r;
      r.data.resize(static_cast<std::size_t>(layer_.out.c) * ow);
      for (std::size_t i = 0; i < r.data.size(); ++i) {
        r.data[i] = algo::dequantize_act_i8(out8_[i], mode_.out_scale,
                                            mode_.out_zp);
      }
      return r;
    }

    // One GEMM per output row, straight into the row: the same packed f32
    // datapath and pinned KC as the whole-tensor reference, and per-element
    // accumulation order does not depend on N, so float mode reproduces
    // nn::run_network byte for byte.
    Row r;
    r.data.resize(static_cast<std::size_t>(layer_.out.c) * ow);
    kernels::gemm_f32(*packed_, ow, patch_.data(), ow, r.data.data(), ow,
                      bias_.empty() ? nullptr : bias_.data(), cp.fused_relu,
                      /*threads=*/0);
    snap_out(mode_, r.data.data(), r.data.data(), r.data.size());
    return r;
  }

  std::vector<float> bias_;
  std::shared_ptr<const kernels::PackedLhsF32> packed_;
  std::shared_ptr<const Int8ConvConstants> i8c_;
  std::vector<float> patch_;
  std::vector<std::int8_t> patch8_;
  std::vector<std::int8_t> out8_;
};

// --------------------------------------------------------------------------
class WinogradEngine final : public RowWindowBase {
 public:
  WinogradEngine(const nn::Layer& layer, const nn::ConvWeights& w,
                 const algo::WinogradTransform& t, NumericMode mode,
                 std::shared_ptr<const kernels::WinogradPlan> plan)
      // n rows in flight through the transform plus m streaming in.
      : RowWindowBase(layer, t.n() + t.m, mode),
        plan_(std::move(plan)),
        bias_(w.bias) {
    if (layer.conv().stride != 1) {
      throw std::invalid_argument("WinogradEngine requires stride 1");
    }
    if (layer.conv().kernel != t.r) {
      throw std::invalid_argument("WinogradEngine: kernel != r");
    }
    if (!plan_) {
      // No shared plan supplied: transform the filters here, once per
      // engine (the pipeline caches and shares plans across images).
      plan_ = std::make_shared<const kernels::WinogradPlan>(
          algo::pack_winograd_plan(t, w.filters));
    }
    tiles_w_ = (layer.out.w + t.m - 1) / t.m;
    strip_w_ = (tiles_w_ - 1) * t.m + t.n();
    strip_.resize(static_cast<std::size_t>(layer.in.c) * t.n() * strip_w_);
  }

  void reset() override {
    RowWindowBase::reset();
    block_.clear();
  }

 private:
  [[nodiscard]] bool window_ready() const override {
    if (!block_.empty()) return true;  // rows already computed, still emitting
    const long long b = rows_emitted_ / plan_->m;
    // Bottom tiles may hang past the padded edge; the overhang is zero-fill,
    // so only in-range rows are required.
    const long long need =
        std::min<long long>(b * plan_->m + plan_->n, padded_h_);
    return pushed() >= need;
  }

  [[nodiscard]] Row emit_row() override {
    if (block_.empty()) compute_block();
    Row r = std::move(block_.front());
    block_.erase(block_.begin());
    return r;
  }

  void compute_block() {
    const int n = plan_->n, m = plan_->m;
    const long long b = rows_emitted_ / m;
    const long long top = b * m;
    const int rows_this_block =
        static_cast<int>(std::min<long long>(m, layer_.out.h - top));
    block_.assign(static_cast<std::size_t>(rows_this_block), Row{});
    for (auto& row : block_) {
      row.data.assign(static_cast<std::size_t>(layer_.out.c) * layer_.out.w,
                      0.0f);
    }

    // Gather the line-buffer window into a contiguous strip (zero beyond the
    // padded extent) and hand the whole tile row to the batched kernel.
    const int copy_w = std::min(strip_w_, padded_w_);
    for (int c = 0; c < layer_.in.c; ++c) {
      for (int u = 0; u < n; ++u) {
        float* dst =
            strip_.data() +
            (static_cast<std::size_t>(c) * n + u) * strip_w_;
        if (top + u >= padded_h_) {
          std::fill(dst, dst + strip_w_, 0.0f);
          continue;
        }
        const float* src = lb_.row_ptr(c, top + u);
        std::copy(src, src + copy_w, dst);
        if (copy_w < strip_w_) std::fill(dst + copy_w, dst + strip_w_, 0.0f);
      }
    }

    out_rows_.assign(
        static_cast<std::size_t>(rows_this_block) * layer_.out.c, nullptr);
    for (int a = 0; a < rows_this_block; ++a) {
      for (int oc = 0; oc < layer_.out.c; ++oc) {
        out_rows_[static_cast<std::size_t>(a) * layer_.out.c + oc] =
            block_[static_cast<std::size_t>(a)].data.data() +
            static_cast<std::size_t>(oc) * layer_.out.w;
      }
    }
    kernels::winograd_strip(*plan_, strip_.data(), strip_w_, tiles_w_,
                            out_rows_.data(), rows_this_block, layer_.out.w,
                            bias_.empty() ? nullptr : bias_.data(),
                            layer_.conv().fused_relu, mode_.out_frac,
                            /*threads=*/0);
  }

  std::shared_ptr<const kernels::WinogradPlan> plan_;
  std::vector<float> bias_;
  std::vector<Row> block_;
  int tiles_w_ = 0;
  int strip_w_ = 0;
  std::vector<float> strip_;
  std::vector<float*> out_rows_;  ///< reused across compute_block calls
};

// --------------------------------------------------------------------------
class PoolEngine final : public RowWindowBase {
 public:
  PoolEngine(const nn::Layer& layer, NumericMode mode)
      : RowWindowBase(layer, layer.pool().kernel + layer.pool().stride, mode),
        rows_(static_cast<std::size_t>(layer.pool().kernel)) {}

 private:
  [[nodiscard]] bool window_ready() const override {
    const auto& pp = layer_.pool();
    // Caffe's ceil rounding can leave the last window hanging past the
    // padded bottom edge; it is clipped, so only in-range rows are required.
    const long long need = std::min<long long>(
        static_cast<long long>(rows_emitted_) * pp.stride + pp.kernel,
        padded_h_);
    return pushed() >= need;
  }

  [[nodiscard]] Row emit_row() override {
    const auto& pp = layer_.pool();
    const int k = pp.kernel, s = pp.stride;
    const int ow = layer_.out.w;
    const long long top = static_cast<long long>(rows_emitted_) * s;
    // Window rows that hold real input (padding and Caffe's ceil overhang
    // are skipped, exactly like pool_reference).
    const int u0 = static_cast<int>(std::max<long long>(0, pad_ - top));
    const int u1 = static_cast<int>(
        std::min<long long>(k, pad_ + layer_.in.h - top));
    Row r;
    r.data.resize(static_cast<std::size_t>(layer_.out.c) * ow);
    for (int c = 0; c < layer_.in.c; ++c) {
      for (int u = u0; u < u1; ++u) rows_[u] = lb_.row_ptr(c, top + u);
      float* dst = r.data.data() + static_cast<std::size_t>(c) * ow;
      for (int j = 0; j < ow; ++j) {
        // Columns of this window that hold real input: v in [v0, v1).
        const int v0 = std::max(0, pad_ - j * s);
        const int v1 = std::min(k, pad_ + layer_.in.w - j * s);
        float best = -std::numeric_limits<float>::infinity();
        float sum = 0.0f;
        for (int u = u0; u < u1; ++u) {
          const float* src = rows_[u] + j * s;
          for (int v = v0; v < v1; ++v) {
            best = std::max(best, src[v]);
            sum += src[v];
          }
        }
        const int count = std::max(0, u1 - u0) * std::max(0, v1 - v0);
        const float val =
            (pp.method == nn::PoolMethod::kMax)
                ? best
                : (count ? sum / static_cast<float>(count) : 0.0f);
        dst[j] = val;
      }
    }
    snap_out(mode_, r.data.data(), r.data.data(), r.data.size());
    return r;
  }

  std::vector<const float*> rows_;  ///< window row pointers of one channel
};

// --------------------------------------------------------------------------
class LrnEngine final : public StreamEngine {
 public:
  LrnEngine(const nn::Layer& layer, NumericMode mode)
      : layer_(layer), mode_(mode) {}

  [[nodiscard]] const nn::Layer& layer() const override { return layer_; }
  [[nodiscard]] int line_buffer_lines() const override { return 2; }
  [[nodiscard]] bool done() const override {
    return rows_emitted_ == layer_.out.h;
  }
  void reset() override { rows_emitted_ = 0; }

  bool step(RowFifo& in, RowFifo& out) override {
    if (done() || in.empty() || out.full()) return false;
    const Row r = in.pop();
    const auto& p = layer_.lrn();
    const int C = layer_.in.c, W = layer_.in.w;
    const int half = p.local_size / 2;
    const float scale = p.alpha / static_cast<float>(p.local_size);
    const std::size_t n = r.data.size();
    // Each input is quantized and squared once per row, not once per window
    // member; summation stays ascending in cc, so the bytes match
    // lrn_reference. The scratch is per call, not per engine: a fleet holds
    // many pipelines, and member buffers would stay resident.
    std::vector<float> x(n), sq(n), ss(static_cast<std::size_t>(W));
    snap_in(mode_, r.data.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) sq[i] = x[i] * x[i];
    Row o;
    o.data.resize(n);
    for (int c = 0; c < C; ++c) {
      const int lo = std::max(0, c - half);
      const int hi = std::min(C - 1, c + half);
      std::fill(ss.begin(), ss.end(), 0.0f);
      for (int cc = lo; cc <= hi; ++cc) {
        const float* sqc = sq.data() + static_cast<std::size_t>(cc) * W;
        for (int w = 0; w < W; ++w) ss[w] += sqc[w];
      }
      const std::size_t row = static_cast<std::size_t>(c) * W;
      for (int w = 0; w < W; ++w) {
        const float denom = std::pow(p.k + scale * ss[w], p.beta);
        o.data[row + w] = x[row + w] / denom;
      }
    }
    snap_out(mode_, o.data.data(), o.data.data(), n);
    out.push(std::move(o));
    ++rows_emitted_;
    return true;
  }

 private:
  const nn::Layer layer_;
  const NumericMode mode_;
  int rows_emitted_ = 0;
};

// --------------------------------------------------------------------------
class ReluEngine final : public StreamEngine {
 public:
  ReluEngine(const nn::Layer& layer, NumericMode mode)
      : layer_(layer), mode_(mode) {}

  [[nodiscard]] const nn::Layer& layer() const override { return layer_; }
  [[nodiscard]] int line_buffer_lines() const override { return 1; }
  [[nodiscard]] bool done() const override {
    return rows_emitted_ == layer_.out.h;
  }
  void reset() override { rows_emitted_ = 0; }

  bool step(RowFifo& in, RowFifo& out) override {
    if (done() || in.empty() || out.full()) return false;
    Row r = in.pop();
    for (auto& x : r.data) x = std::max(x, 0.0f);
    snap_out(mode_, r.data.data(), r.data.data(), r.data.size());
    out.push(std::move(r));
    ++rows_emitted_;
    return true;
  }

 private:
  const nn::Layer layer_;
  const NumericMode mode_;
  int rows_emitted_ = 0;
};

}  // namespace

std::shared_ptr<const Int8ConvConstants> make_int8_conv_constants(
    const nn::Layer& layer, const nn::ConvWeights& w,
    const NumericMode& mode) {
  if (!mode.int8()) {
    throw std::invalid_argument("int8 constants need an int8 mode ('" +
                                layer.name + "')");
  }
  const int k = layer.conv().kernel;
  const int rows = layer.in.c * k * k;
  algo::Int8ConvQuant q;
  q.in_scale = mode.in_scale;
  q.in_zp = mode.in_zp;
  q.out_scale = mode.out_scale;
  q.out_zp = mode.out_zp;
  q.per_channel = true;
  q.w_scales.resize(static_cast<std::size_t>(layer.out.c));
  for (int n = 0; n < layer.out.c; ++n) {
    float m = 0.0f;
    const float* wp =
        w.filters.data() + static_cast<std::size_t>(n) * rows;
    for (int j = 0; j < rows; ++j) m = std::max(m, std::abs(wp[j]));
    q.w_scales[static_cast<std::size_t>(n)] = m > 0.0f ? m / 127.0f : 1.0f;
  }
  const std::vector<std::int8_t> wq = algo::quantize_filters_i8(w.filters, q);
  auto consts = std::make_shared<Int8ConvConstants>();
  consts->packed =
      kernels::PackedLhsI8(wq.data(), layer.out.c, rows, rows);
  consts->requant = algo::requant_scales(q, layer.out.c);
  consts->bias = algo::fold_bias_i8(w.bias, q, wq.data(), layer.out.c, rows);
  consts->pad_value = algo::quantize_act_i8(0.0f, q.in_scale, q.in_zp);
  return consts;
}

std::unique_ptr<StreamEngine> make_engine(
    const nn::Layer& layer, const nn::ConvWeights* weights,
    std::optional<algo::WinogradTransform> wino, NumericMode mode,
    std::shared_ptr<const kernels::WinogradPlan> wino_plan,
    std::shared_ptr<const kernels::PackedLhsF32> packed_weights,
    std::shared_ptr<const Int8ConvConstants> int8_consts) {
  switch (layer.kind) {
    case nn::LayerKind::kConv: {
      if (!weights) {
        throw std::invalid_argument("conv engine needs weights ('" +
                                    layer.name + "')");
      }
      if (wino) {
        if (mode.int8()) {
          throw std::invalid_argument(
              "int8 mode is conventional-only ('" + layer.name + "')");
        }
        return std::make_unique<WinogradEngine>(layer, *weights, *wino, mode,
                                                std::move(wino_plan));
      }
      return std::make_unique<ConvDirectEngine>(layer, *weights, mode,
                                                std::move(packed_weights),
                                                std::move(int8_consts));
    }
    case nn::LayerKind::kPool:
      return std::make_unique<PoolEngine>(layer, mode);
    case nn::LayerKind::kLrn:
      return std::make_unique<LrnEngine>(layer, mode);
    case nn::LayerKind::kRelu:
      return std::make_unique<ReluEngine>(layer, mode);
    default:
      throw std::invalid_argument("no streaming engine for layer kind '" +
                                  std::string(nn::to_string(layer.kind)) +
                                  "'");
  }
}

}  // namespace hetacc::arch
