#pragma once
// The int8 quantization scheme shared by every i8 consumer (the algo conv
// variant, the streaming conv engine, calibration): per-channel symmetric
// weights (zero-point 0, scale = max|w| / 127) and per-tensor asymmetric
// activations (scale = range / 255 with the range extended to contain 0.0,
// zero-point nudged onto the grid). The input zero-point correction is
// pre-folded into the i32 bias, so the GEMM core runs on raw i8 codes and
// the requantize-on-writeback epilogue (kernels/gemm.h) needs only a
// per-channel scale and the output zero-point.

#include <cmath>
#include <cstdint>
#include <vector>

#include "fixed/fixed16.h"
#include "nn/tensor.h"

namespace hetacc::algo {

/// Asymmetric activation grid: real v maps to code round(v / scale) + zp.
struct ActQuant {
  float scale = 1.0f;
  std::int32_t zp = 0;
};

/// Chooses the activation grid covering [mn, mx] (extended to include 0.0 so
/// the padding value is exactly representable), full i8 range, nudged
/// zero-point. Degenerate ranges get scale 1, zp 0.
[[nodiscard]] ActQuant choose_act_quant(float mn, float mx);

/// Real -> i8 code on an activation grid (round half to even, saturating;
/// NaN -> -128, see fixed::rint_sat).
[[nodiscard]] inline std::int8_t quantize_act_i8(float v, float scale,
                                                 std::int32_t zp) {
  long long q = fixed::rint_sat(static_cast<double>(v) /
                                static_cast<double>(scale)) +
                zp;
  if (q < -128) q = -128;
  if (q > 127) q = 127;
  return static_cast<std::int8_t>(q);
}

/// i8 code -> real on an activation grid.
[[nodiscard]] inline float dequantize_act_i8(std::int8_t q, float scale,
                                             std::int32_t zp) {
  return static_cast<float>(static_cast<std::int32_t>(q) - zp) * scale;
}

/// Full quantization recipe of one conv layer.
struct Int8ConvQuant {
  float in_scale = 1.0f;
  std::int32_t in_zp = 0;
  float out_scale = 1.0f;
  std::int32_t out_zp = 0;
  std::vector<float> w_scales;  ///< out_c entries, or 1 when !per_channel
  bool per_channel = true;
};

/// Derives the recipe from the float filters and observed activation ranges.
[[nodiscard]] Int8ConvQuant make_int8_conv_quant(const nn::FilterBank& filters,
                                                 float in_min, float in_max,
                                                 float out_min, float out_max,
                                                 bool per_channel = true);

/// Weights rounded to symmetric i8 codes, row-major out_c x (in_c * k * k).
[[nodiscard]] std::vector<std::int8_t> quantize_filters_i8(
    const nn::FilterBank& filters, const Int8ConvQuant& q);

/// i32 bias with the input-zero-point correction folded in:
///   bias_q[n] = round(bias_f[n] / (in_scale * w_scale[n]))
///             - in_zp * sum_k wq[n][k]
/// so the GEMM can run on raw codes (sum_k wq * q_in) and still produce the
/// zero-point-corrected accumulator. `rows` = in_c * k * k.
[[nodiscard]] std::vector<std::int32_t> fold_bias_i8(
    const std::vector<float>& bias, const Int8ConvQuant& q,
    const std::int8_t* wq, int out_c, int rows);

/// Per-channel requantization scales for the writeback epilogue:
///   in_scale * w_scale[n] / out_scale.
[[nodiscard]] std::vector<float> requant_scales(const Int8ConvQuant& q,
                                                int out_c);

}  // namespace hetacc::algo
