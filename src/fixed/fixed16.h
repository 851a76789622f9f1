#pragma once
// 16-bit fixed-point arithmetic (the paper's designs all use "16-bit fixed
// data type", §7.1). Q-format with a runtime fraction width so different
// layers can pick different scalings, saturating on overflow like a DSP48E
// datapath with saturation logic.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace hetacc::fixed {

// Rounding contract of the quantized datapaths. Both helpers are inline,
// so per-element quantize loops compile to straight-line (and, over rows,
// vectorized) code instead of calls into libm's nearbyintf / llrint. Both
// round half to even by adding and subtracting 1.5 * 2^p (p = mantissa
// bits), which is exact in the default round-to-nearest mode while the
// magnitude stays below 2^(p-1).

/// The 16-bit grid code of `v` at `scale` = 2^frac, as an integer-valued
/// float in [-32768, 32767]: v * scale rounded half to even, saturating
/// (+-Inf included), NaN -> 0 (what the x86-64 float -> int16 conversion of
/// the libm formula produced). -0 and values rounding to zero give +0.
/// Rounding before the clamp is exact where it matters: below 2^22 the
/// add/subtract rounds exactly, and from 2^22 up its result stays beyond
/// the rails, which the clamp then applies. The order keeps loops
/// vectorizable: GCC splits a select whose constant arm feeds foldable
/// arithmetic (a clamp before the add, or NaN -> 0 after the multiply) into
/// branches, while 0 * scale cannot be folded. v * scale is exact whenever
/// finite (a power of two), so contracting it into the add cannot change a
/// result.
[[nodiscard]] inline float grid_code(float v, float scale) {
  v = std::isnan(v) ? 0.0f : v;
  const float s = v * scale;
  constexpr float kRound = 0x1.8p23f;
  const float r = (s + kRound) - kRound;
  return std::min(std::max(r, -32768.0f), 32767.0f);
}

/// llrint(d) of the int8 datapath: round half to even, saturated to +-2^51,
/// far beyond any int8 or int32 clamp its callers apply next. NaN and
/// d >= 2^63, where x86-64 llrint returns LLONG_MIN, give -2^51, so callers
/// saturate low exactly as with the llrint formula they replaced. Clamping
/// first keeps the add/subtract in its exact range.
[[nodiscard]] inline long long rint_sat(double d) {
  constexpr double kLimit = 0x1p51;
  d = d < 0x1p63 ? d : -kLimit;
  d = std::min(std::max(d, -kLimit), kLimit);
  constexpr double kRound = 0x1.8p52;
  return static_cast<long long>((d + kRound) - kRound);
}

/// A 16-bit signed fixed-point value with `frac` fractional bits.
/// Stored/computed explicitly rather than via a template parameter so the
/// simulator can mix formats across layers at runtime.
class Fixed16 {
 public:
  static constexpr int kBits = 16;
  static constexpr std::int32_t kMax = std::numeric_limits<std::int16_t>::max();
  static constexpr std::int32_t kMin = std::numeric_limits<std::int16_t>::min();

  Fixed16() = default;
  Fixed16(float v, int frac) : frac_(frac), raw_(quantize(v, frac)) {}

  static Fixed16 from_raw(std::int16_t raw, int frac) {
    Fixed16 f;
    f.raw_ = raw;
    f.frac_ = frac;
    return f;
  }

  [[nodiscard]] std::int16_t raw() const { return raw_; }
  [[nodiscard]] int frac() const { return frac_; }
  [[nodiscard]] float to_float() const {
    return static_cast<float>(raw_) / static_cast<float>(1 << frac_);
  }

  /// Quantization step at this format.
  [[nodiscard]] float ulp() const { return 1.0f / static_cast<float>(1 << frac_); }

  /// Saturating add; both operands must share a format.
  [[nodiscard]] Fixed16 add_sat(Fixed16 other) const;
  /// Saturating multiply: full 32-bit product, round-to-nearest shift back.
  [[nodiscard]] Fixed16 mul_sat(Fixed16 other) const;

  static std::int16_t quantize(float v, int frac) {
    return static_cast<std::int16_t>(
        grid_code(v, static_cast<float>(1 << frac)));
  }

 private:
  int frac_ = 8;
  std::int16_t raw_ = 0;
};

/// Round-trip a float through the 16-bit grid (the operation applied to all
/// feature maps and weights before they enter a fixed-point datapath).
[[nodiscard]] inline float quantize_to_float(float v, int frac) {
  const float scale = static_cast<float>(1 << frac);
  return grid_code(v, scale) * (1.0f / scale);
}

/// quantize_to_float over n values; `src` may equal `dst`. The scale is
/// hoisted and the loop vectorizes.
inline void quantize_row(const float* src, float* dst, std::size_t n,
                         int frac) {
  const float scale = static_cast<float>(1 << frac);
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < n; ++i) dst[i] = grid_code(src[i], scale) * inv;
}

inline void quantize_in_place(std::vector<float>& data, int frac) {
  quantize_row(data.data(), data.data(), data.size(), frac);
}

/// Fraction width that covers `max_abs` without saturation while keeping
/// maximal precision; clamped to [0, 15].
[[nodiscard]] int choose_frac_bits(float max_abs);

/// 32-bit accumulator in Q(2*frac) as used by MAC trees: products of two
/// Q(frac) values accumulate exactly, one rounding at writeback.
class Accumulator {
 public:
  explicit Accumulator(int frac) : frac_(frac) {}
  void mac(Fixed16 a, Fixed16 b) {
    acc_ += static_cast<std::int64_t>(a.raw()) * b.raw();
  }
  void add_bias(Fixed16 b) {
    acc_ += static_cast<std::int64_t>(b.raw()) << frac_;
  }
  [[nodiscard]] Fixed16 result() const;
  [[nodiscard]] Fixed16 result_relu() const;

 private:
  int frac_;
  std::int64_t acc_ = 0;
};

}  // namespace hetacc::fixed
