#include "fixed/fixed16.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace hetacc::fixed {
namespace {

// The libm formula the inline grid_code replaced, kept as the oracle:
// nearbyint, then clamp, then the float -> int16 conversion. That
// conversion of a NaN is undefined in C++; on x86-64 it produced 0, which
// the oracle states explicitly instead of executing it.
std::int16_t libm_quantize(float v, int frac) {
  const float rounded = std::nearbyint(v * static_cast<float>(1 << frac));
  if (std::isnan(rounded)) return 0;
  return static_cast<std::int16_t>(std::clamp(
      rounded, static_cast<float>(Fixed16::kMin),
      static_cast<float>(Fixed16::kMax)));
}

float libm_quantize_to_float(float v, int frac) {
  return static_cast<float>(libm_quantize(v, frac)) /
         static_cast<float>(1 << frac);
}

/// Inputs every format is checked on: a strided sweep of float bit patterns
/// (about 128 per exponent, both signs, NaN payloads included) plus the
/// explicit edges of the rounding contract at the given format.
std::vector<float> rounding_inputs(int frac) {
  std::vector<float> v;
  for (std::uint64_t u = 0; u <= 0xFFFFFFFFull; u += 65521) {
    v.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u)));
  }
  const float inv = 1.0f / static_cast<float>(1 << frac);
  for (float k : {0.5f, 1.5f, 2.5f, 3.5f, 100.5f, 32766.5f, 32767.5f,
                  32768.5f, 32767.49f, 32767.51f, 40000.0f}) {
    v.push_back(k * inv);
    v.push_back(-k * inv);
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (float e : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                  -std::numeric_limits<float>::denorm_min(),
                  std::numeric_limits<float>::min(),
                  std::numeric_limits<float>::max(),
                  -std::numeric_limits<float>::max(), inf, -inf,
                  std::numeric_limits<float>::quiet_NaN(),
                  -std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::signaling_NaN()}) {
    v.push_back(e);
  }
  return v;
}

TEST(Fixed16, RoundTripExactValues) {
  // Values on the Q8 grid round-trip exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 3.25f, -7.875f}) {
    EXPECT_EQ(Fixed16(v, 8).to_float(), v);
  }
}

TEST(Fixed16, QuantizationErrorBounded) {
  const int frac = 10;
  const float ulp = 1.0f / (1 << frac);
  for (float v = -3.0f; v < 3.0f; v += 0.00137f) {
    const float q = quantize_to_float(v, frac);
    EXPECT_LE(std::abs(q - v), ulp / 2 + 1e-7f) << v;
  }
}

TEST(Fixed16, SaturatesAtRangeEnds) {
  EXPECT_EQ(Fixed16(1e9f, 8).raw(), Fixed16::kMax);
  EXPECT_EQ(Fixed16(-1e9f, 8).raw(), Fixed16::kMin);
}

TEST(Fixed16, AddSaturates) {
  const Fixed16 big(127.0f, 8);
  const Fixed16 sum = big.add_sat(big);
  EXPECT_EQ(sum.raw(), Fixed16::kMax);
  const Fixed16 small(1.5f, 8);
  EXPECT_FLOAT_EQ(small.add_sat(small).to_float(), 3.0f);
}

TEST(Fixed16, MulMatchesFloatWithinUlp) {
  const int frac = 8;
  const Fixed16 a(1.25f, frac), b(-2.5f, frac);
  EXPECT_NEAR(a.mul_sat(b).to_float(), -3.125f, a.ulp());
}

TEST(Fixed16, MulSaturates) {
  const Fixed16 a(100.0f, 8), b(100.0f, 8);
  EXPECT_EQ(a.mul_sat(b).raw(), Fixed16::kMax);
}

TEST(Fixed16, UlpMatchesFrac) {
  EXPECT_FLOAT_EQ(Fixed16(0.0f, 12).ulp(), 1.0f / 4096.0f);
}

TEST(ChooseFracBits, CoversMagnitude) {
  EXPECT_EQ(choose_frac_bits(0.5f), 15);
  EXPECT_EQ(choose_frac_bits(1.5f), 14);
  EXPECT_EQ(choose_frac_bits(3.9f), 13);
  EXPECT_EQ(choose_frac_bits(100.0f), 8);
  EXPECT_EQ(choose_frac_bits(0.0f), 15);
}

TEST(ChooseFracBits, NoSaturationAtChosenWidth) {
  for (float mag : {0.3f, 1.0f, 2.7f, 9.0f, 200.0f}) {
    const int frac = choose_frac_bits(mag);
    const float q = quantize_to_float(mag, frac);
    // Quantization may clamp by at most one ulp at the extreme.
    EXPECT_NEAR(q, mag, 1.0f / (1 << frac) + 1e-6f);
  }
}

TEST(Accumulator, ExactProductAccumulation) {
  const int frac = 8;
  Accumulator acc(frac);
  // 0.5 * 0.25 accumulated 16 times = 2.0 exactly in Q8.
  for (int i = 0; i < 16; ++i) acc.mac(Fixed16(0.5f, frac), Fixed16(0.25f, frac));
  EXPECT_FLOAT_EQ(acc.result().to_float(), 2.0f);
}

TEST(Accumulator, BiasInjection) {
  const int frac = 8;
  Accumulator acc(frac);
  acc.add_bias(Fixed16(1.5f, frac));
  acc.mac(Fixed16(2.0f, frac), Fixed16(2.0f, frac));
  EXPECT_FLOAT_EQ(acc.result().to_float(), 5.5f);
}

TEST(Accumulator, ReluClampsNegative) {
  Accumulator acc(8);
  acc.mac(Fixed16(-2.0f, 8), Fixed16(3.0f, 8));
  EXPECT_FLOAT_EQ(acc.result_relu().to_float(), 0.0f);
  EXPECT_FLOAT_EQ(acc.result().to_float(), -6.0f);
}

TEST(Accumulator, SaturatesOnWriteback) {
  Accumulator acc(8);
  for (int i = 0; i < 100; ++i) acc.mac(Fixed16(100.0f, 8), Fixed16(100.0f, 8));
  EXPECT_EQ(acc.result().raw(), Fixed16::kMax);
}

TEST(GridRounding, BitIdenticalToLibmFormulaAtEveryFormat) {
  for (int frac = 0; frac < 16; ++frac) {
    const std::vector<float> in = rounding_inputs(frac);
    std::vector<float> row(in.size());
    quantize_row(in.data(), row.data(), in.size(), frac);
    std::vector<float> whole = in;
    quantize_in_place(whole, frac);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const std::uint32_t want =
          std::bit_cast<std::uint32_t>(libm_quantize_to_float(in[i], frac));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(quantize_to_float(in[i], frac)),
                want)
          << "frac " << frac << " v " << in[i];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(row[i]), want)
          << "row, frac " << frac << " v " << in[i];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(whole[i]), want)
          << "in place, frac " << frac << " v " << in[i];
      ASSERT_EQ(Fixed16::quantize(in[i], frac), libm_quantize(in[i], frac))
          << "frac " << frac << " v " << in[i];
    }
  }
}

TEST(GridRounding, EdgesOfTheContract) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Ties go to even, on both signs.
  EXPECT_EQ(Fixed16::quantize(2.5f, 0), 2);
  EXPECT_EQ(Fixed16::quantize(3.5f, 0), 4);
  EXPECT_EQ(Fixed16::quantize(-2.5f, 0), -2);
  EXPECT_EQ(Fixed16::quantize(-0.5f, 0), 0);
  EXPECT_EQ(Fixed16::quantize(0.75f, 1), 2);  // 1.5 -> 2
  // Saturation: the rails, their half-step neighbours and the infinities.
  EXPECT_EQ(Fixed16::quantize(32767.5f, 0), Fixed16::kMax);
  EXPECT_EQ(Fixed16::quantize(-32768.5f, 0), Fixed16::kMin);
  EXPECT_EQ(Fixed16::quantize(-32767.5f, 0), Fixed16::kMin);
  EXPECT_EQ(Fixed16::quantize(inf, 15), Fixed16::kMax);
  EXPECT_EQ(Fixed16::quantize(-inf, 15), Fixed16::kMin);
  // NaN -> 0; -0, negative denormals and values rounding to zero -> +0.
  EXPECT_EQ(Fixed16::quantize(nan, 8), 0);
  for (float z : {-0.0f, -std::numeric_limits<float>::denorm_min(), -0.2f}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(quantize_to_float(z, 0)), 0u) << z;
  }
  EXPECT_EQ(std::bit_cast<std::uint32_t>(quantize_to_float(nan, 15)), 0u);
}

TEST(RintSat, MatchesLlrintInRangeAndSaturatesBeyond) {
  const double lim = 0x1p51;
  for (double d : {0.0, -0.0, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -128.5,
                   1e-300, -1e-300, 4.4e-324, 12345.678, -98765.4321,
                   0x1p51 - 0.5, -0x1p51 + 0.5, 0x1p50 + 0.5}) {
    EXPECT_EQ(rint_sat(d), std::llrint(d)) << d;
  }
  // Every finite exponent below 2^63, both signs.
  const std::uint64_t top = std::bit_cast<std::uint64_t>(0x1p63);
  for (std::uint64_t u = 0; u < top; u += 0x7FFFFFFFFFFFull) {
    const double d = std::bit_cast<double>(u);
    const long long want =
        d < lim ? std::llrint(d) : static_cast<long long>(lim);
    EXPECT_EQ(rint_sat(d), want) << d;
    EXPECT_EQ(rint_sat(-d), -want) << -d;
  }
  // Where x86-64 llrint returns LLONG_MIN (NaN, d >= 2^63), saturate low.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(rint_sat(std::numeric_limits<double>::quiet_NaN()), -(1ll << 51));
  EXPECT_EQ(rint_sat(0x1p63), -(1ll << 51));
  EXPECT_EQ(rint_sat(inf), -(1ll << 51));
  EXPECT_EQ(rint_sat(0x1p63 - 1024.0), 1ll << 51);
  EXPECT_EQ(rint_sat(-inf), -(1ll << 51));
}

TEST(QuantizeInPlace, WholeVector) {
  std::vector<float> v{0.1f, 0.2f, -0.3f};
  quantize_in_place(v, 4);
  for (float x : v) {
    EXPECT_FLOAT_EQ(x * 16.0f, std::nearbyint(x * 16.0f));
  }
}

}  // namespace
}  // namespace hetacc::fixed
