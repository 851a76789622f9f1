#include "arch/pipeline.h"

#include <algorithm>
#include <cmath>

#include "core/strategy.h"
#include "cost/cost_model.h"
#include "fault/crc32.h"
#include "kernels/parallel.h"
#include "support/error.h"

namespace hetacc::arch {

std::vector<LayerChoice> choices_of(const core::Strategy& s) {
  std::vector<LayerChoice> ch;
  for (const auto& g : s.groups) {
    for (const auto& ipl : g.impls) {
      ch.push_back({ipl.cfg.algo, ipl.cfg.wino_m, {}});
    }
  }
  return ch;
}

namespace {

/// CRC-32 of a float Winograd plan's transforms and packed U^T panels,
/// continuing from `crc`.
std::uint32_t wino_plan_crc(const kernels::WinogradPlan& p,
                            std::uint32_t crc = 0u) {
  crc = fault::crc32(p.bt.data(), p.bt.size() * sizeof(float), crc);
  crc = fault::crc32(p.at.data(), p.at.size() * sizeof(float), crc);
  for (const kernels::PackedRhsF32& u : p.ut) {
    crc = fault::crc32(u.data().data(), u.data().size() * sizeof(float), crc);
  }
  return crc;
}

/// Input row h of `t` as a stream row: one copy per channel row.
Row gather_row(const nn::Tensor& t, int h) {
  const nn::Shape& s = t.shape();
  Row r;
  r.data.resize(static_cast<std::size_t>(s.c) * s.w);
  for (int c = 0; c < s.c; ++c) {
    const float* src = t.row_ptr(c, h);
    std::copy(src, src + s.w,
              r.data.data() + static_cast<std::size_t>(c) * s.w);
  }
  return r;
}

/// Stores stream row `r` as row h of `t`: one copy per channel row.
void scatter_row(const Row& r, nn::Tensor& t, int h) {
  const int w = t.shape().w;
  for (int c = 0; c < t.shape().c; ++c) {
    const float* src = r.data.data() + static_cast<std::size_t>(c) * w;
    std::copy(src, src + w, t.row_ptr(c, h));
  }
}

/// Both constructors' argument check: `net` starts with an input layer and
/// `choices` has one entry per later layer (empty = all-conventional float).
std::vector<LayerChoice> checked_choices(const nn::Network& net,
                                         std::vector<LayerChoice> choices) {
  if (net.empty() || net[0].kind != nn::LayerKind::kInput) {
    throw std::invalid_argument("FusionPipeline: net must start with input");
  }
  const std::size_t layer_count = net.size() - 1;
  if (choices.empty()) choices.resize(layer_count);
  if (choices.size() != layer_count) {
    throw std::invalid_argument("FusionPipeline: choices size mismatch");
  }
  return choices;
}

}  // namespace

long long PrepackBundle::resident_bytes() const {
  long long total = 0;
  for (const auto& p : wino) {
    if (p) total += p->footprint_bytes();
  }
  for (const auto& p : packed) {
    if (p) total += p->footprint_bytes();
  }
  for (const auto& p : int8) {
    if (!p) continue;
    total += p->packed.footprint_bytes();
    total += static_cast<long long>(p->requant.size() * sizeof(float));
    total += static_cast<long long>(p->bias.size() * sizeof(std::int32_t));
  }
  return total;
}

std::uint32_t PrepackBundle::content_crc() const {
  std::uint32_t crc = 0u;
  const auto fold = [&crc](const void* data, std::size_t bytes) {
    crc = fault::crc32(data, bytes, crc);
  };
  const auto fold_packed = [&fold](const auto& pk) {
    for (int pb = 0; pb < pk.pblocks(); ++pb) {
      for (int ib = 0; ib < pk.iblocks(); ++ib) {
        const auto& blk = pk.block(pb, ib);
        fold(blk.data(), blk.size() * sizeof(blk[0]));
      }
    }
  };
  for (const auto& p : wino) {
    if (p) crc = wino_plan_crc(*p, crc);
  }
  for (const auto& p : packed) {
    if (p) fold_packed(*p);
  }
  for (const auto& p : int8) {
    if (!p) continue;
    fold_packed(p->packed);
    fold(p->requant.data(), p->requant.size() * sizeof(float));
    fold(p->bias.data(), p->bias.size() * sizeof(std::int32_t));
    fold(&p->pad_value, sizeof(p->pad_value));
  }
  return crc;
}

FusionPipeline::FusionPipeline(const nn::Network& net,
                               const nn::WeightStore& ws,
                               std::vector<LayerChoice> choices)
    : net_(net), ws_(ws), choices_(checked_choices(net, std::move(choices))) {
  derive_layer_constants();
  engines_ = build_engine_set();
}

FusionPipeline::FusionPipeline(const nn::Network& net,
                               const nn::WeightStore& ws,
                               std::vector<LayerChoice> choices,
                               std::shared_ptr<const PrepackBundle> prepack)
    : net_(net), ws_(ws), choices_(checked_choices(net, std::move(choices))),
      prepack_(std::move(prepack)) {
  const std::size_t layer_count = choices_.size();
  if (!prepack_ || prepack_->wino.size() != layer_count ||
      prepack_->packed.size() != layer_count ||
      prepack_->int8.size() != layer_count) {
    throw std::invalid_argument(
        "FusionPipeline: adopted prepack bundle does not match layer count");
  }
  engines_ = build_engine_set();
}

void FusionPipeline::derive_layer_constants() {
  // Derive per-layer constants once: packed transform-domain Winograd
  // filter panels (the seed re-transformed the filters for every image) and
  // packed GEMM weight panels.
  //
  // With a fault plan installed, the resident filter copy each constant is
  // derived from may take bit flips (modeled SEUs on the on-chip weight
  // store). The hardened design holds a CRC-32 of every panel computed at
  // load time; on mismatch it reloads the golden copy from DDR — the
  // "retry-with-reload" path — so protected runs derive from clean weights
  // and count the event as detected + recovered.
  //
  // The constants land in a *fresh* bundle assigned at the end: bundles are
  // immutable once published, so a fleet peer that adopted the previous one
  // (shared_prepack()) keeps a valid, un-struck copy for as long as it holds
  // the pointer.
  const std::size_t layer_count = net_.size() - 1;
  PrepackBundle b;
  b.wino.assign(layer_count, nullptr);
  b.packed.assign(layer_count, nullptr);
  b.int8.assign(layer_count, nullptr);
  // Weight-store SEUs hit one word per panel of this many floats.
  constexpr std::size_t kPanelFloats = 512;
  for (std::size_t i = 0; i + 1 < net_.size(); ++i) {
    const nn::Layer& l = net_[i + 1];
    if (l.kind != nn::LayerKind::kConv) continue;
    const nn::ConvWeights& w = ws_.conv(i + 1);
    const std::size_t n_words = static_cast<std::size_t>(w.filters.size());
    const nn::FilterBank* filters = &w.filters;
    nn::FilterBank resident;
    if (injector_ && injector_->plan().weight_panel_flip_rate > 0.0) {
      resident = w.filters;
      bool hit = false;
      for (std::size_t p = 0; p * kPanelFloats < n_words; ++p) {
        const std::size_t lo = p * kPanelFloats;
        const std::size_t len = std::min(kPanelFloats, n_words - lo);
        hit |= injector_->maybe_corrupt_row(
            fault::FaultSite::kWeightPanel, static_cast<std::uint64_t>(i),
            static_cast<std::uint64_t>(p), resident.data() + lo, len);
      }
      if (hit && protect_.enabled && protect_.crc_weights &&
          fault::crc32_f32(resident.data(), n_words) !=
              fault::crc32_f32(w.filters.data(), n_words)) {
        // CRC mismatch against the load-time checksum: reload golden.
        injector_->count_detected();
        injector_->count_recovered();
      } else if (hit) {
        filters = &resident;  // silent corruption: derive from flipped copy
      }
    }
    if (choices_[i].algo == fpga::ConvAlgo::kWinograd) {
      const algo::WinogradTransform t =
          algo::winograd(choices_[i].wino_m, l.conv().kernel);
      auto plan = std::make_shared<kernels::WinogradPlan>(
          algo::pack_winograd_plan(t, *filters));
      if (filters != &w.filters && protect_.enabled &&
          protect_.wino_checksum) {
        // Checksum-verified filter transform: the transform unit checks its
        // packed output panels against the checksum stored with the golden
        // plan.
        auto golden = algo::pack_winograd_plan(t, w.filters);
        if (wino_plan_crc(*plan) != wino_plan_crc(golden)) {
          injector_->count_detected();
          injector_->count_recovered();
          *plan = std::move(golden);  // re-transform from the clean filters
        }
      }
      b.wino[i] = std::move(plan);
    } else if (choices_[i].algo == fpga::ConvAlgo::kConventional) {
      if (choices_[i].mode.int8()) {
        // Int8 panels are derived from the (CRC-verified or golden) float
        // filters the same way the f32 panels are, so the protection path
        // above covers them too — a detected weight-panel SEU reloads the
        // golden copy before quantization, never silently bypassing CRC.
        if (filters == &w.filters) {
          b.int8[i] = make_int8_conv_constants(l, w, choices_[i].mode);
        } else {
          nn::ConvWeights resident_w{*filters, w.bias};
          b.int8[i] =
              make_int8_conv_constants(l, resident_w, choices_[i].mode);
        }
      } else {
        const int kk = l.in.c * l.conv().kernel * l.conv().kernel;
        b.packed[i] = std::make_shared<const kernels::PackedLhsF32>(
            filters->data(), l.out.c, kk, kk);
      }
    }
  }
  prepack_ = std::make_shared<const PrepackBundle>(std::move(b));
}

void FusionPipeline::install_fault_plan(const fault::FaultPlan& plan,
                                        const fault::ProtectionConfig& protect) {
  injector_ = std::make_unique<fault::FaultInjector>(plan);
  protect_ = protect;
  derive_layer_constants();
  engines_ = build_engine_set();
}

void FusionPipeline::clear_fault_plan() {
  injector_.reset();
  protect_ = fault::ProtectionConfig{};
  derive_layer_constants();
  engines_ = build_engine_set();
}

void FusionPipeline::reset() {
  // Clean pipelines keep their (possibly shared) bundle: a re-derive from
  // the golden weight store would be value-identical, so skipping it makes
  // reset() cheap and keeps fleet peers pointer-aliased. Under a fault plan
  // the re-derive is the whole point — the deterministic SEUs re-strike
  // fresh resident copies — and it publishes a new private bundle, leaving
  // any peer's adopted copy untouched.
  if (injector_) derive_layer_constants();
  engines_ = build_engine_set();
}

fault::FaultStats FusionPipeline::fault_stats() const {
  return injector_ ? injector_->stats() : fault::FaultStats{};
}

std::vector<std::unique_ptr<StreamEngine>> FusionPipeline::build_engine_set()
    const {
  std::vector<std::unique_ptr<StreamEngine>> engines;
  for (std::size_t i = 0; i + 1 < net_.size(); ++i) {
    const nn::Layer& l = net_[i + 1];
    if (l.is_merge()) {
      // Merge layers run on whole tensors between streams (run_dag); the
      // engine slot stays null to keep choices_/engines_ index-aligned.
      engines.push_back(nullptr);
      continue;
    }
    const nn::ConvWeights* w =
        (l.kind == nn::LayerKind::kConv) ? &ws_.conv(i + 1) : nullptr;
    std::optional<algo::WinogradTransform> t;
    if (l.kind == nn::LayerKind::kConv &&
        choices_[i].algo == fpga::ConvAlgo::kWinograd) {
      t = algo::winograd(choices_[i].wino_m, l.conv().kernel);
    }
    engines.push_back(make_engine(l, w, t, choices_[i].mode, prepack_->wino[i],
                                  prepack_->packed[i], prepack_->int8[i]));
  }
  return engines;
}

nn::Tensor FusionPipeline::run(const nn::Tensor& input) {
  return run_any(engines_, input, &stats_);
}

nn::Tensor FusionPipeline::run_any(
    std::vector<std::unique_ptr<StreamEngine>>& engines,
    const nn::Tensor& input, PipelineStats* stats) const {
  // Fresh engine state per image (the hardware resets its line-buffer
  // counters between frames); layer constants survive the reset.
  for (auto& e : engines) {
    if (e) e->reset();
  }
  if (input.shape() != net_[0].out) {
    throw std::invalid_argument("FusionPipeline::run: input shape " +
                                input.shape().str() + " != " +
                                net_[0].out.str());
  }
  if (stats) *stats = PipelineStats{};
  return net_.is_chain() ? stream(engines, 0, engines.size(), input, stats)
                         : run_dag(engines, input, stats);
}

std::vector<nn::Tensor> FusionPipeline::run_batch(
    const std::vector<nn::Tensor>& inputs, int threads) const {
  std::vector<nn::Tensor> outs(inputs.size());
  if (inputs.empty()) return outs;
  const int want = std::min<int>(kernels::resolve_threads(
                                     threads == 0 ? kernels::num_threads()
                                                  : threads),
                                 static_cast<int>(inputs.size()));
  const std::size_t per =
      (inputs.size() + static_cast<std::size_t>(std::max(want, 1)) - 1) /
      static_cast<std::size_t>(std::max(want, 1));
  // One engine set per claimed range (engines are stateful); the per-layer
  // constants in the prepack bundle are shared by all of them.
  kernels::parallel_for_ranges(
      inputs.size(), per, threads, [&](std::size_t lo, std::size_t hi) {
        auto engines = build_engine_set();
        for (std::size_t i = lo; i < hi; ++i) {
          outs[i] = run_any(engines, inputs[i], nullptr);
        }
      });
  return outs;
}

nn::Tensor FusionPipeline::run_dag(
    std::vector<std::unique_ptr<StreamEngine>>& engines,
    const nn::Tensor& input, PipelineStats* stats) const {
  // Graph walk: each single-input layer streams row-by-row through its
  // engine (the same loop the chained path runs over all engines); merge
  // layers gather their producers' whole feature maps and combine them
  // between streams, which is how the generated design stages branch arms
  // through DDR today.
  std::vector<nn::Tensor> outs;
  outs.reserve(net_.size());
  outs.push_back(input);
  for (std::size_t i = 1; i < net_.size(); ++i) {
    const nn::Layer& l = net_[i];
    if (l.is_merge()) {
      std::vector<const nn::Tensor*> ins;
      ins.reserve(l.inputs.size());
      for (std::size_t u : l.inputs) ins.push_back(&outs[u]);
      outs.push_back(l.kind == nn::LayerKind::kConcat
                         ? nn::concat_reference(ins)
                         : nn::eltwise_add_reference(ins));
      continue;
    }
    outs.push_back(
        stream(engines, i - 1, i, outs[l.inputs.front()], stats));
  }
  return std::move(outs.back());
}

nn::Tensor FusionPipeline::stream(
    std::vector<std::unique_ptr<StreamEngine>>& engines, std::size_t first,
    std::size_t end, const nn::Tensor& input, PipelineStats* stats) const {
  // fifos[k] is channel first + k: it feeds engine first + k, and the last
  // one carries engine end - 1's output rows.
  const std::size_t n = engines.size();
  const std::size_t m = end - first;
  std::vector<RowFifo> fifos(m + 1);
  if (injector_) {
    // Each channel id names exactly one FIFO: channel i feeds engine i and
    // channel n is the store stream. A DAG layer's output FIFO ends in a
    // whole-tensor hop, not a channel, unless it is the net's store stream.
    // Engines use their layer index as the line-buffer injection stream.
    for (std::size_t k = 0; k <= m; ++k) {
      if (k < m || end == n) {
        fifos[k].attach_fault(injector_.get(),
                              static_cast<std::uint64_t>(first + k));
      }
    }
    for (std::size_t i = first; i < end; ++i) {
      engines[i]->set_fault_injector(injector_.get(),
                                     static_cast<std::uint64_t>(i));
    }
  }

  const nn::Shape& out_shape = net_[end].out;
  nn::Tensor out(out_shape);
  int out_rows = 0;
  int fed_rows = 0;
  const auto stage_name = [&](std::size_t ch) {
    return ch < n ? engines[ch]->layer().name : std::string("store");
  };

  // Feed one input row, then let every engine advance as far as it can —
  // this keeps FIFO occupancy near the hardware steady state instead of
  // buffering whole feature maps. The feeder honors the channel's
  // back-pressure (full() is also how a wedged channel presents), so a
  // stalled input stream surfaces through the watchdog, not as overflow.
  while (out_rows < out_shape.h) {
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
      throw ServeError(ServeError::Reason::kCancelled,
                       "pipeline run cancelled in stage '" +
                           stage_name(end - 1) + "' after emitting " +
                           std::to_string(out_rows) + "/" +
                           std::to_string(out_shape.h) + " output rows");
    }
    const bool can_feed = fed_rows < input.shape().h && !fifos[0].full();
    if (can_feed) {
      fifos[0].push(gather_row(input, fed_rows));
      ++fed_rows;
    }

    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t k = 0; k < m; ++k) {
        while (engines[first + k]->step(fifos[k], fifos[k + 1])) {
          progressed = true;
          if (stats) ++stats->total_steps;
        }
      }
      // Drain finished output rows.
      while (!fifos[m].empty()) {
        const Row r = fifos[m].pop();
        if (out_rows >= out_shape.h) {
          throw std::runtime_error("pipeline produced too many rows");
        }
        scatter_row(r, out, out_rows);
        ++out_rows;
        progressed = true;
      }
    }
    if (can_feed || out_rows >= out_shape.h) continue;

    // The DATAFLOW watchdog. The sweep above went quiet and the feeder
    // cannot move either (input exhausted, or the input channel refuses
    // traffic); if one more sweep moves nothing and the output stream is
    // empty, the run is deadlocked. Diagnose which stage wedged instead of
    // hanging (the hardware's watchdog timer raises an interrupt with the
    // stalled stream's id; here the "interrupt" is a structured FaultError).
    bool anything = false;
    for (std::size_t k = 0; k < m && !anything; ++k) {
      anything = engines[first + k]->step(fifos[k], fifos[k + 1]);
    }
    if (anything || !fifos[m].empty()) continue;
    for (std::size_t k = 0; k <= m; ++k) {
      if (!fifos[k].wedged()) continue;
      const std::size_t ch = first + k;
      const std::string stage = stage_name(ch);
      if (injector_) {
        injector_->count_unrecovered(
            fault::FaultSite::kFifoPush, static_cast<std::uint64_t>(ch),
            static_cast<std::uint64_t>(fifos[k].total_pushed()), 0);
      }
      throw FaultError("pipeline watchdog: FIFO channel " +
                           std::to_string(ch) + " feeding stage '" + stage +
                           "' wedged after " +
                           std::to_string(fifos[k].total_pushed()) +
                           " pushes",
                       stage, static_cast<long long>(ch));
    }
    for (std::size_t k = 0; k < m; ++k) {
      const StreamEngine& e = *engines[first + k];
      if (e.done()) continue;
      throw FaultError(
          "pipeline watchdog: stage '" + e.layer().name + "' starved (in fifo " +
              (fifos[k].empty() ? "empty" : "ready") + ", out fifo " +
              (fifos[k + 1].full() ? "full" : "ready") + ")",
          e.layer().name, static_cast<long long>(first + k));
    }
    throw FaultError("pipeline watchdog: stalled with all engines done", "");
  }

  if (stats) {
    auto& occ = stats->fifo_max_occupancy;
    occ.resize(n + 1);
    for (std::size_t k = 0; k <= m; ++k) {
      occ[first + k] = std::max(occ[first + k], fifos[k].max_occupancy());
    }
  }
  return out;
}

ScheduleResult simulate_schedule(const nn::Network& net, std::size_t first,
                                 std::size_t last,
                                 const std::vector<fpga::Implementation>& impls,
                                 const fpga::Device& dev) {
  if (first > last || last >= net.size() ||
      impls.size() != last - first + 1) {
    throw std::invalid_argument("simulate_schedule: bad range");
  }
  const double bpc = dev.bytes_per_cycle();

  // Ready times of the producer's rows; starts as the DDR load schedule of
  // the group's input feature map.
  const nn::Shape in_shape = net[first].in;
  const double in_row_cycles =
      cost::row_transfer_cycles(in_shape.w, in_shape.c, dev.data_bytes, bpc);
  std::vector<double> prev(static_cast<std::size_t>(in_shape.h));
  for (int r = 0; r < in_shape.h; ++r) {
    prev[static_cast<std::size_t>(r)] = (r + 1) * in_row_cycles;
  }

  ScheduleResult res;
  for (std::size_t li = first; li <= last; ++li) {
    const nn::Layer& l = net[li];
    const auto& ipl = impls[li - first];
    const int out_rows = l.out.h;
    const double row_cycles = static_cast<double>(ipl.compute_cycles) /
                              std::max(1, out_rows);
    const int window = l.window();
    const int stride = l.stride();
    const int pad = l.padding();
    const bool wino = ipl.cfg.algo == fpga::ConvAlgo::kWinograd;
    const int block = wino ? ipl.cfg.wino_m : 1;
    const int reach = wino ? ipl.cfg.wino_m + window - 1 : window;

    std::vector<double> cur(static_cast<std::size_t>(out_rows), 0.0);
    double t = 0.0;
    for (int i = 0; i < out_rows; ++i) {
      // Deepest producer row this output row (or its tile block) touches.
      const int base = wino ? (i / block) * block : i * stride;
      long long need = static_cast<long long>(base) + reach - 1 - pad;
      need = std::clamp<long long>(need, 0, l.in.h - 1);
      const double dep = prev[static_cast<std::size_t>(need)];
      t = std::max(t, dep) + row_cycles;
      cur[static_cast<std::size_t>(i)] = t;
    }
    res.layer_finish.push_back(static_cast<long long>(std::ceil(t)));
    if (li == last) {
      res.first_output_cycle = static_cast<long long>(std::ceil(cur.front()));
    }
    prev = std::move(cur);
  }

  // Drain the group output to DDR.
  const nn::Shape out_shape = net[last].out;
  const double out_row_cycles =
      cost::row_transfer_cycles(out_shape.w, out_shape.c, dev.data_bytes, bpc);
  double t = 0.0;
  for (int r = 0; r < out_shape.h; ++r) {
    t = std::max(t, prev[static_cast<std::size_t>(r)]) + out_row_cycles;
  }
  res.makespan_cycles = static_cast<long long>(std::ceil(t));
  return res;
}

}  // namespace hetacc::arch
