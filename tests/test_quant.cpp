#include "quant/calibration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "algo/int8_quant.h"
#include "arch/pipeline.h"
#include "kernels/gemm.h"
#include "nn/model_zoo.h"

namespace hetacc::quant {
namespace {

// llrint as the int8 formulas used it, kept as the oracle of the inline
// rounding. For NaN and d outside (-2^63, 2^63) x86-64 llrint returns
// LLONG_MIN (-2^63 itself is exact); the oracle returns -2^62 there instead,
// which saturates the same way but cannot overflow when a negative
// zero-point is added.
long long libm_rint(double d) {
  if (std::isnan(d) || d >= 0x1p63 || d <= -0x1p63) return -(1ll << 62);
  return std::llrint(d);
}

std::int8_t libm_quantize_act_i8(float v, float scale, std::int32_t zp) {
  long long q =
      libm_rint(static_cast<double>(v) / static_cast<double>(scale)) + zp;
  if (q < -128) q = -128;
  if (q > 127) q = 127;
  return static_cast<std::int8_t>(q);
}

std::int8_t libm_requantize_i32(std::int32_t acc, float scale,
                                std::int32_t zp, bool relu) {
  long long r =
      libm_rint(static_cast<double>(acc) * static_cast<double>(scale)) + zp;
  if (relu && r < zp) r = zp;
  if (r < -128) r = -128;
  if (r > 127) r = 127;
  return static_cast<std::int8_t>(r);
}

/// Strided float bit patterns reaching every exponent, both signs, NaNs
/// included, plus the rounding edges: ties, rails, +-0, denormals, +-Inf.
std::vector<float> int8_inputs() {
  std::vector<float> v;
  for (std::uint64_t u = 0; u <= 0xFFFFFFFFull; u += 65521) {
    v.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u)));
  }
  for (float k : {0.5f, 1.5f, 2.5f, 126.5f, 127.5f, 128.5f, 255.5f}) {
    v.push_back(k);
    v.push_back(-k);
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (float e : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                  -std::numeric_limits<float>::denorm_min(), inf, -inf,
                  std::numeric_limits<float>::quiet_NaN()}) {
    v.push_back(e);
  }
  return v;
}

class CalibrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = nn::tiny_net(4, 16);
    ws_ = nn::WeightStore::deterministic(net_, 31);
    for (std::uint32_t seed = 41; seed < 44; ++seed) {
      nn::Tensor t(net_[0].out);
      nn::fill_deterministic(t, seed);
      samples_.push_back(std::move(t));
    }
  }

  nn::Network net_;
  nn::WeightStore ws_;
  std::vector<nn::Tensor> samples_;
};

TEST_F(CalibrationTest, RangesCoverObservedActivations) {
  const Calibration cal = calibrate(net_, ws_, samples_, 0);
  ASSERT_EQ(cal.layers.size(), net_.size() - 1);
  const auto outs = nn::run_network_all(net_, ws_, samples_[0]);
  for (std::size_t i = 1; i < net_.size(); ++i) {
    float m = 0.0f;
    for (float v : outs[i].vec()) m = std::max(m, std::abs(v));
    EXPECT_GE(cal.layers[i - 1].max_abs_out, m) << i;
  }
}

TEST_F(CalibrationTest, FormatsAvoidSaturation) {
  const Calibration cal = calibrate(net_, ws_, samples_, 0);
  for (const auto& lr : cal.layers) {
    // Representable max at the chosen format covers the observed range.
    const float max_rep = 32767.0f / static_cast<float>(1 << lr.out_frac);
    EXPECT_GE(max_rep * 1.0001f, lr.max_abs_out) << lr.name;
  }
}

TEST_F(CalibrationTest, GuardBitsWidenHeadroom) {
  const Calibration tight = calibrate(net_, ws_, samples_, 0);
  const Calibration guarded = calibrate(net_, ws_, samples_, 2);
  for (std::size_t i = 0; i < tight.layers.size(); ++i) {
    EXPECT_LE(guarded.layers[i].out_frac, tight.layers[i].out_frac);
  }
}

TEST_F(CalibrationTest, CalibratedPipelineBeatsNaiveFormat) {
  const Calibration cal = calibrate(net_, ws_, samples_, 1);
  nn::Tensor probe(net_[0].out);
  nn::fill_deterministic(probe, 99);
  const nn::Tensor golden = nn::run_network(net_, ws_, probe);

  arch::FusionPipeline calibrated(net_, ws_, [&] {
    std::vector<arch::LayerChoice> ch(net_.size() - 1);
    const auto modes = cal.modes();
    for (std::size_t i = 0; i < ch.size(); ++i) ch[i].mode = modes[i];
    return ch;
  }());
  const float calibrated_err =
      calibrated.run(probe).max_abs_diff(golden);

  // Naive: far too few fraction bits everywhere -> coarse grid.
  arch::FusionPipeline naive(net_, ws_, [&] {
    std::vector<arch::LayerChoice> ch(net_.size() - 1);
    for (auto& c : ch) c.mode = arch::NumericMode{4, 4};
    return ch;
  }());
  const float naive_err = naive.run(probe).max_abs_diff(golden);

  EXPECT_LT(calibrated_err, naive_err);
  EXPECT_LT(calibrated_err, 0.02f);
}

TEST_F(CalibrationTest, ModesAlignWithLayers) {
  const Calibration cal = calibrate(net_, ws_, samples_);
  const auto modes = cal.modes();
  ASSERT_EQ(modes.size(), cal.layers.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    EXPECT_EQ(modes[i].in_frac, cal.layers[i].in_frac);
    EXPECT_EQ(modes[i].out_frac, cal.layers[i].out_frac);
    EXPECT_TRUE(modes[i].fixed());
  }
}

TEST_F(CalibrationTest, InvalidInputsThrow) {
  EXPECT_THROW((void)calibrate(net_, ws_, {}), std::invalid_argument);
  std::vector<nn::Tensor> bad{nn::Tensor(1, 2, 2)};
  EXPECT_THROW((void)calibrate(net_, ws_, bad), std::invalid_argument);
}

TEST_F(CalibrationTest, WeightQuantizationRoundsToGrid) {
  const nn::WeightStore q = quantize_weights(net_, ws_);
  const auto i = *net_.find("c1");
  const auto& orig = ws_.conv(i).filters;
  const auto& quant = q.conv(i).filters;
  float worst = 0.0f;
  for (std::int64_t j = 0; j < orig.size(); ++j) {
    worst = std::max(worst, std::abs(orig.data()[j] - quant.data()[j]));
  }
  // Weights are <= 0.25 in magnitude -> frac 15 -> half-ulp error bound.
  EXPECT_LE(worst, 0.5f / (1 << 15) + 1e-7f);
  // And the quantized store still produces a close forward pass.
  nn::Tensor probe(net_[0].out);
  nn::fill_deterministic(probe, 7);
  const auto a = nn::run_network(net_, ws_, probe);
  const auto b = nn::run_network(net_, q, probe);
  EXPECT_LT(a.max_abs_diff(b), 5e-3f);
}

TEST(ActQuantGrid, ExtendsRangeToZeroAndNudgesZeroPoint) {
  // Positive-only range: extended down to 0 so the padding value (real 0.0)
  // has an exact code, which lands the zero-point on the bottom rail.
  const algo::ActQuant pos = algo::choose_act_quant(2.0f, 10.0f);
  EXPECT_FLOAT_EQ(pos.scale, 10.0f / 255.0f);
  EXPECT_EQ(pos.zp, -128);
  EXPECT_FLOAT_EQ(algo::dequantize_act_i8(algo::quantize_act_i8(
                      0.0f, pos.scale, pos.zp), pos.scale, pos.zp), 0.0f);

  // Negative-only range: extended up to 0, zero-point on the top rail.
  const algo::ActQuant neg = algo::choose_act_quant(-6.0f, -1.0f);
  EXPECT_FLOAT_EQ(neg.scale, 6.0f / 255.0f);
  EXPECT_EQ(neg.zp, 127);
  EXPECT_FLOAT_EQ(algo::dequantize_act_i8(algo::quantize_act_i8(
                      0.0f, neg.scale, neg.zp), neg.scale, neg.zp), 0.0f);

  // Signed range: both rails reachable within one step of the endpoints.
  const algo::ActQuant s = algo::choose_act_quant(-3.0f, 5.0f);
  EXPECT_FLOAT_EQ(s.scale, 8.0f / 255.0f);
  EXPECT_GE(s.zp, -128);
  EXPECT_LE(s.zp, 127);
  EXPECT_NEAR(algo::dequantize_act_i8(127, s.scale, s.zp), 5.0f, s.scale);
  EXPECT_NEAR(algo::dequantize_act_i8(-128, s.scale, s.zp), -3.0f, s.scale);
  // Real 0.0 maps exactly onto code zp and back.
  EXPECT_EQ(algo::quantize_act_i8(0.0f, s.scale, s.zp),
            static_cast<std::int8_t>(s.zp));
}

TEST(Int8Rounding, ActivationCodesBitIdenticalToLlrintFormula) {
  const std::vector<float> in = int8_inputs();
  for (float scale : {1.0f, 0.5f, 8.0f / 255.0f, 1e-30f, 3e30f}) {
    for (std::int32_t zp : {-128, -5, 0, 3, 127}) {
      for (float v : in) {
        ASSERT_EQ(algo::quantize_act_i8(v, scale, zp),
                  libm_quantize_act_i8(v, scale, zp))
            << "v " << v << " scale " << scale << " zp " << zp;
      }
    }
  }
  // The contract's edges, spelled out: NaN saturates low, ties go to even.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(algo::quantize_act_i8(nan, 0.1f, 7), -128);
  EXPECT_EQ(algo::quantize_act_i8(nan, 0.1f, -128), -128);
  EXPECT_EQ(algo::quantize_act_i8(2.5f, 1.0f, 0), 2);
  EXPECT_EQ(algo::quantize_act_i8(-2.5f, 1.0f, 0), -2);
  EXPECT_EQ(algo::quantize_act_i8(127.5f, 1.0f, 0), 127);
}

TEST(Int8Rounding, RequantizeBitIdenticalToLlrintFormula) {
  std::vector<float> scales;
  for (std::uint64_t u = 0; u <= 0xFFFFFFFFull; u += 16777259) {
    scales.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u)));
  }
  for (float s : {0.5f, 1.0f, 1e-3f, 1e9f}) scales.push_back(s);
  for (float scale : scales) {
    for (std::int64_t acc = INT32_MIN; acc <= INT32_MAX; acc += 33554467) {
      for (std::int32_t zp : {-128, -9, 0, 5, 127}) {
        for (bool relu : {false, true}) {
          const auto a = static_cast<std::int32_t>(acc);
          ASSERT_EQ(kernels::requantize_i32(a, scale, zp, relu),
                    libm_requantize_i32(a, scale, zp, relu))
              << "acc " << a << " scale " << scale << " zp " << zp
              << " relu " << relu;
        }
      }
    }
  }
  // Ties at +-k.5 go to even; NaN saturates low, or to the zero-point
  // under ReLU.
  EXPECT_EQ(kernels::requantize_i32(5, 0.5f, 0, false), 2);
  EXPECT_EQ(kernels::requantize_i32(-5, 0.5f, 0, false), -2);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(kernels::requantize_i32(3, nan, 4, false), -128);
  EXPECT_EQ(kernels::requantize_i32(3, nan, 4, true), 4);
}

TEST(Int8Rounding, PrepackConstantsSaturateNaNWeightsLow) {
  // The prepack-time roundings share the helper: a NaN weight takes the
  // symmetric bottom code, a NaN bias the bottom of the i32 range.
  nn::FilterBank f(1, 1, 1);
  f.data()[0] = std::numeric_limits<float>::quiet_NaN();
  algo::Int8ConvQuant q;
  q.w_scales = {1.0f};
  const std::vector<std::int8_t> wq = algo::quantize_filters_i8(f, q);
  EXPECT_EQ(wq[0], -127);
  const std::vector<std::int32_t> b = algo::fold_bias_i8(
      {std::numeric_limits<float>::quiet_NaN()}, q, wq.data(), 1, 1);
  EXPECT_EQ(b[0], INT32_MIN);
}

TEST(ActQuantGrid, DegenerateRangeFallsBackToIdentity) {
  // An all-zero tensor has no usable range: identity grid.
  const algo::ActQuant zero = algo::choose_act_quant(0.0f, 0.0f);
  EXPECT_FLOAT_EQ(zero.scale, 1.0f);
  EXPECT_EQ(zero.zp, 0);
  // A constant nonzero tensor is NOT degenerate — extending to include 0.0
  // gives it a real span.
  const algo::ActQuant constant = algo::choose_act_quant(5.0f, 5.0f);
  EXPECT_FLOAT_EQ(constant.scale, 5.0f / 255.0f);
}

TEST_F(CalibrationTest, ModesInt8CarryActivationGridsFromObservedRanges) {
  const Calibration cal = calibrate(net_, ws_, samples_);
  const auto modes = cal.modes_int8();
  ASSERT_EQ(modes.size(), cal.layers.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& m = modes[i];
    const auto& lr = cal.layers[i];
    EXPECT_TRUE(m.int8());
    EXPECT_FALSE(m.fixed());  // int8 modes are not Q-format modes
    const algo::ActQuant in = algo::choose_act_quant(lr.min_in, lr.max_in);
    const algo::ActQuant out = algo::choose_act_quant(lr.min_out, lr.max_out);
    EXPECT_FLOAT_EQ(m.in_scale, in.scale) << lr.name;
    EXPECT_EQ(m.in_zp, in.zp) << lr.name;
    EXPECT_FLOAT_EQ(m.out_scale, out.scale) << lr.name;
    EXPECT_EQ(m.out_zp, out.zp) << lr.name;
    // The grid covers the observed output range: the top code dequantizes
    // to at least max_out minus one step.
    EXPECT_GE(algo::dequantize_act_i8(127, m.out_scale, m.out_zp),
              lr.max_out - m.out_scale) << lr.name;
    EXPECT_LE(algo::dequantize_act_i8(-128, m.out_scale, m.out_zp),
              std::min(lr.min_out, 0.0f) + m.out_scale) << lr.name;
  }
}

TEST_F(CalibrationTest, Int8PipelineTracksFloatReference) {
  const Calibration cal = calibrate(net_, ws_, samples_, 1);
  nn::Tensor probe(net_[0].out);
  nn::fill_deterministic(probe, 99);
  const nn::Tensor golden = nn::run_network(net_, ws_, probe);
  float range = 0.0f;
  for (float v : golden.vec()) range = std::max(range, std::abs(v));

  arch::FusionPipeline pipe(net_, ws_, [&] {
    std::vector<arch::LayerChoice> ch(net_.size() - 1);
    const auto modes = cal.modes_int8();
    for (std::size_t i = 0; i < ch.size(); ++i) ch[i].mode = modes[i];
    return ch;
  }());
  const float err = pipe.run(probe).max_abs_diff(golden);
  // int8 is coarser than calibrated 16-bit but must stay a small fraction
  // of the output range (the hetacc --int8 testbed reports <1% on real
  // layer stacks; 5% here is generous for a 4-layer random-weight net).
  EXPECT_LT(err, 0.05f * range);
  EXPECT_GT(range, 0.0f);
}

TEST(CalibrationAlexNet, HeadEndToEnd) {
  // Calibrate the AlexNet head (conv1 + norm1 + pool1) and check the fixed
  // pipeline tracks the float reference within a small error.
  const nn::Network full = nn::alexnet_accel();
  const nn::Network head = full.slice(0, 3, "alex-head");
  const nn::WeightStore ws = nn::WeightStore::deterministic(head, 51);
  std::vector<nn::Tensor> samples;
  nn::Tensor s(head[0].out);
  nn::fill_deterministic(s, 52);
  samples.push_back(std::move(s));
  const Calibration cal = calibrate(head, ws, samples, 1);

  std::vector<arch::LayerChoice> ch(head.size() - 1);
  const auto modes = cal.modes();
  for (std::size_t i = 0; i < ch.size(); ++i) ch[i].mode = modes[i];
  arch::FusionPipeline pipe(head, ws, ch);
  nn::Tensor probe(head[0].out);
  nn::fill_deterministic(probe, 53);
  const nn::Tensor golden = nn::run_network(head, ws, probe);
  EXPECT_LT(pipe.run(probe).max_abs_diff(golden), 0.05f);
}

}  // namespace
}  // namespace hetacc::quant
