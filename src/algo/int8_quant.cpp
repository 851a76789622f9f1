#include "algo/int8_quant.h"

#include <algorithm>

namespace hetacc::algo {

ActQuant choose_act_quant(float mn, float mx) {
  // Extend to contain 0.0 so padding (real zero) lands exactly on a code.
  mn = std::min(mn, 0.0f);
  mx = std::max(mx, 0.0f);
  ActQuant aq;
  const double range = static_cast<double>(mx) - static_cast<double>(mn);
  if (!(range > 0.0) || !std::isfinite(range)) return aq;  // degenerate
  aq.scale = static_cast<float>(range / 255.0);
  // Nudge the zero-point so real 0.0 maps to an exact integer code.
  const double zp = -128.0 - static_cast<double>(mn) / aq.scale;
  aq.zp = static_cast<std::int32_t>(
      std::clamp(fixed::rint_sat(zp), -128ll, 127ll));
  return aq;
}

Int8ConvQuant make_int8_conv_quant(const nn::FilterBank& filters,
                                   float in_min, float in_max, float out_min,
                                   float out_max, bool per_channel) {
  Int8ConvQuant q;
  const ActQuant in = choose_act_quant(in_min, in_max);
  const ActQuant out = choose_act_quant(out_min, out_max);
  q.in_scale = in.scale;
  q.in_zp = in.zp;
  q.out_scale = out.scale;
  q.out_zp = out.zp;
  q.per_channel = per_channel;

  const int out_c = filters.out_channels();
  const std::size_t rows =
      out_c > 0 ? static_cast<std::size_t>(filters.size()) / out_c : 0;
  if (per_channel) {
    q.w_scales.resize(static_cast<std::size_t>(out_c));
    for (int n = 0; n < out_c; ++n) {
      float m = 0.0f;
      const float* w = filters.data() + static_cast<std::size_t>(n) * rows;
      for (std::size_t j = 0; j < rows; ++j) m = std::max(m, std::abs(w[j]));
      q.w_scales[static_cast<std::size_t>(n)] = m > 0.0f ? m / 127.0f : 1.0f;
    }
  } else {
    float m = 0.0f;
    for (std::int64_t j = 0; j < filters.size(); ++j) {
      m = std::max(m, std::abs(filters.data()[j]));
    }
    q.w_scales.assign(1, m > 0.0f ? m / 127.0f : 1.0f);
  }
  return q;
}

std::vector<std::int8_t> quantize_filters_i8(const nn::FilterBank& filters,
                                             const Int8ConvQuant& q) {
  const int out_c = filters.out_channels();
  const std::size_t rows =
      out_c > 0 ? static_cast<std::size_t>(filters.size()) / out_c : 0;
  std::vector<std::int8_t> wq(static_cast<std::size_t>(filters.size()));
  for (int n = 0; n < out_c; ++n) {
    const float sc =
        q.per_channel ? q.w_scales[static_cast<std::size_t>(n)]
                      : q.w_scales[0];
    const float* src = filters.data() + static_cast<std::size_t>(n) * rows;
    std::int8_t* dst = wq.data() + static_cast<std::size_t>(n) * rows;
    for (std::size_t j = 0; j < rows; ++j) {
      long long v = fixed::rint_sat(static_cast<double>(src[j]) /
                                    static_cast<double>(sc));
      v = std::clamp(v, -127ll, 127ll);  // symmetric: -128 unused
      dst[j] = static_cast<std::int8_t>(v);
    }
  }
  return wq;
}

std::vector<std::int32_t> fold_bias_i8(const std::vector<float>& bias,
                                       const Int8ConvQuant& q,
                                       const std::int8_t* wq, int out_c,
                                       int rows) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(out_c));
  for (int n = 0; n < out_c; ++n) {
    const float wsc =
        q.per_channel ? q.w_scales[static_cast<std::size_t>(n)]
                      : q.w_scales[0];
    const double acc_scale =
        static_cast<double>(q.in_scale) * static_cast<double>(wsc);
    long long b = 0;
    if (n < static_cast<int>(bias.size())) {
      b = fixed::rint_sat(
          static_cast<double>(bias[static_cast<std::size_t>(n)]) / acc_scale);
    }
    std::int64_t wsum = 0;
    const std::int8_t* w = wq + static_cast<std::size_t>(n) * rows;
    for (int j = 0; j < rows; ++j) wsum += w[j];
    const long long folded = b - static_cast<long long>(q.in_zp) * wsum;
    out[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
        std::clamp(folded, static_cast<long long>(INT32_MIN),
                   static_cast<long long>(INT32_MAX)));
  }
  return out;
}

std::vector<float> requant_scales(const Int8ConvQuant& q, int out_c) {
  std::vector<float> out(static_cast<std::size_t>(out_c));
  for (int n = 0; n < out_c; ++n) {
    const float wsc =
        q.per_channel ? q.w_scales[static_cast<std::size_t>(n)]
                      : q.w_scales[0];
    out[static_cast<std::size_t>(n)] = static_cast<float>(
        static_cast<double>(q.in_scale) * static_cast<double>(wsc) /
        static_cast<double>(q.out_scale));
  }
  return out;
}

}  // namespace hetacc::algo
