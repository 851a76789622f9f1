#include "quant/calibration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "algo/int8_quant.h"
#include "fixed/fixed16.h"

namespace hetacc::quant {

namespace {
float max_abs(const nn::Tensor& t) {
  float m = 0.0f;
  for (float v : t.vec()) m = std::max(m, std::abs(v));
  return m;
}

struct MinMax {
  float mn = 0.0f;
  float mx = 0.0f;
};

MinMax min_max(const nn::Tensor& t) {
  MinMax r;
  bool first = true;
  for (float v : t.vec()) {
    if (first) {
      r.mn = r.mx = v;
      first = false;
    } else {
      r.mn = std::min(r.mn, v);
      r.mx = std::max(r.mx, v);
    }
  }
  return r;
}
}  // namespace

std::vector<arch::NumericMode> Calibration::modes() const {
  std::vector<arch::NumericMode> out;
  out.reserve(layers.size());
  for (const auto& l : layers) {
    out.push_back(arch::NumericMode{l.in_frac, l.out_frac});
  }
  return out;
}

std::vector<arch::NumericMode> Calibration::modes_int8() const {
  std::vector<arch::NumericMode> out;
  out.reserve(layers.size());
  for (const auto& l : layers) {
    arch::NumericMode m;
    m.i8 = true;
    const algo::ActQuant in = algo::choose_act_quant(l.min_in, l.max_in);
    const algo::ActQuant o = algo::choose_act_quant(l.min_out, l.max_out);
    m.in_scale = in.scale;
    m.in_zp = in.zp;
    m.out_scale = o.scale;
    m.out_zp = o.zp;
    out.push_back(m);
  }
  return out;
}

Calibration calibrate(const nn::Network& net, const nn::WeightStore& ws,
                      const std::vector<nn::Tensor>& samples,
                      int guard_bits) {
  if (samples.empty()) {
    throw std::invalid_argument("calibrate: need at least one sample");
  }
  if (net.empty() || net[0].kind != nn::LayerKind::kInput) {
    throw std::invalid_argument("calibrate: net must start with input");
  }
  Calibration cal;
  cal.layers.resize(net.size() - 1);
  for (std::size_t i = 1; i < net.size(); ++i) {
    cal.layers[i - 1].name = net[i].name;
  }
  for (const nn::Tensor& sample : samples) {
    if (sample.shape() != net[0].out) {
      throw std::invalid_argument("calibrate: sample shape mismatch");
    }
    const auto outs = nn::run_network_all(net, ws, sample);
    float prev = max_abs(sample);
    MinMax prev_mm = min_max(sample);
    for (std::size_t i = 1; i < net.size(); ++i) {
      auto& lr = cal.layers[i - 1];
      lr.max_abs_in = std::max(lr.max_abs_in, prev);
      lr.min_in = std::min(lr.min_in, prev_mm.mn);
      lr.max_in = std::max(lr.max_in, prev_mm.mx);
      const float out_abs = max_abs(outs[i]);
      const MinMax out_mm = min_max(outs[i]);
      lr.max_abs_out = std::max(lr.max_abs_out, out_abs);
      lr.min_out = std::min(lr.min_out, out_mm.mn);
      lr.max_out = std::max(lr.max_out, out_mm.mx);
      prev = out_abs;
      prev_mm = out_mm;
    }
  }
  for (auto& lr : cal.layers) {
    lr.in_frac = std::clamp(
        fixed::choose_frac_bits(lr.max_abs_in) - guard_bits, 0, 15);
    lr.out_frac = std::clamp(
        fixed::choose_frac_bits(lr.max_abs_out) - guard_bits, 0, 15);
  }
  return cal;
}

nn::WeightStore quantize_weights(const nn::Network& net,
                                 const nn::WeightStore& ws) {
  nn::WeightStore out = ws;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net[i].kind != nn::LayerKind::kConv) continue;
    auto& w = out.conv(i);
    float m = 0.0f;
    for (std::int64_t j = 0; j < w.filters.size(); ++j) {
      m = std::max(m, std::abs(w.filters.data()[j]));
    }
    for (float b : w.bias) m = std::max(m, std::abs(b));
    const int frac = fixed::choose_frac_bits(m);
    fixed::quantize_row(w.filters.data(), w.filters.data(),
                        static_cast<std::size_t>(w.filters.size()), frac);
    fixed::quantize_in_place(w.bias, frac);
  }
  return out;
}

}  // namespace hetacc::quant
