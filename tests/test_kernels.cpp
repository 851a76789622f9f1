// Kernel-layer contract tests: the blocked/packed GEMM and batched Winograd
// paths must (a) agree with naive math, (b) agree with the retained scalar
// seed implementations across randomized conv geometries, (c) be bit-exact
// on the fixed-point datapaths, and (d) produce byte-identical results for
// every thread count (the determinism contract in DESIGN.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "arch/pipeline.h"
#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"
#include "kernels/wino_gemm.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"

namespace hetacc {
namespace {

using nn::FilterBank;
using nn::Tensor;

/// Restores the process-wide kernel thread count on scope exit so tests
/// cannot leak thread settings into each other.
struct ThreadGuard {
  ~ThreadGuard() { kernels::set_num_threads(1); }
};

/// Restores default dispatch blocking on scope exit so blocking overrides
/// cannot leak between tests.
struct BlockingGuard {
  ~BlockingGuard() { kernels::clear_tuned_blocking(); }
};

std::vector<float> random_floats(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

// ------------------------------------------------------------------ GEMM --
void naive_f32(int M, int N, int K, const float* A, const float* B, float* C,
               const float* bias, bool relu) {
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < N; ++j) {
      double acc = bias ? bias[i] : 0.0;
      for (int k = 0; k < K; ++k) {
        acc += double(A[i * K + k]) * double(B[k * N + j]);
      }
      float v = float(acc);
      C[i * N + j] = (relu && v < 0.0f) ? 0.0f : v;
    }
  }
}

TEST(Gemm, F32MatchesNaiveAcrossBlockBoundaries) {
  std::mt19937 rng(7);
  // Geometries straddling the MR/NR/KC/MC blocking constants.
  const int cases[][3] = {{1, 1, 1},   {4, 8, 16},   {5, 7, 3},
                          {13, 29, 300}, {97, 33, 257}, {3, 130, 520}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    const auto A = random_floats(std::size_t(M) * K, rng);
    const auto B = random_floats(std::size_t(K) * N, rng);
    const auto bias = random_floats(std::size_t(M), rng);
    std::vector<float> got(std::size_t(M) * N), want(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, got.data(), N,
                      bias.data(), /*relu=*/true, /*threads=*/1);
    naive_f32(M, N, K, A.data(), B.data(), want.data(), bias.data(), true);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-3f) << "M=" << M << " N=" << N
                                          << " K=" << K << " i=" << i;
    }
  }
}

TEST(Gemm, KZeroFillsBiasAndRelu) {
  std::vector<float> C(6, 99.0f);
  const float bias[2] = {1.5f, -2.0f};
  kernels::gemm_f32(2, 3, 0, nullptr, 1, nullptr, 3, C.data(), 3, bias, true,
                    1);
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(C[j], 1.5f);
    EXPECT_FLOAT_EQ(C[3 + j], 0.0f);  // relu clamps the negative bias
  }
}

TEST(Gemm, PackedLhsMatchesRawBitwise) {
  std::mt19937 rng(11);
  const int M = 37, N = 41, K = 275;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  std::vector<float> raw(std::size_t(M) * N), packed(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, raw.data(), N, nullptr,
                    false, 1);
  const kernels::PackedLhsF32 pa(A.data(), M, K, K);
  EXPECT_EQ(pa.rows(), M);
  EXPECT_EQ(pa.depth(), K);
  kernels::gemm_f32(pa, N, B.data(), N, packed.data(), N, nullptr, false, 1);
  EXPECT_EQ(0, std::memcmp(raw.data(), packed.data(),
                           raw.size() * sizeof(float)));
}

TEST(Gemm, PackedRhsMatchesRawBitwise) {
  ThreadGuard guard;
  BlockingGuard blocking;
  std::mt19937 rng(12);
  // M spans several MR panels and MC blocks, N is off the NR=16 multiple,
  // K spans two KC steps.
  const int M = 101, N = 77, K = 300;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  std::vector<float> raw(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, raw.data(), N,
                    bias.data(), true, 1);

  const kernels::PackedRhsF32 pb(B.data(), K, N, N);
  EXPECT_EQ(pb.depth(), K);
  EXPECT_EQ(pb.cols(), N);
  EXPECT_EQ(pb.nr(), 16);
  // Retune MC and NC after packing: the pack keeps the blocking it baked,
  // and neither knob moves any element's accumulation chain.
  kernels::set_blocking(kernels::Datapath::kF32, {32, 256, 48, 3});
  for (const int threads : {1, 3}) {
    std::vector<float> packed(std::size_t(M) * N);
    kernels::gemm_f32(M, A.data(), K, pb, packed.data(), N, bias.data(), true,
                      threads);
    EXPECT_EQ(0, std::memcmp(raw.data(), packed.data(),
                             raw.size() * sizeof(float)))
        << "threads=" << threads;
  }
  // A pack built under an explicit NC (not a multiple of NR) agrees too.
  kernels::clear_tuned_blocking();
  const kernels::PackedRhsF32 pb_nc(B.data(), K, N, N, {96, 256, 40, 0});
  EXPECT_EQ(pb_nc.nc(), 40);
  std::vector<float> packed_nc(std::size_t(M) * N);
  kernels::gemm_f32(M, A.data(), K, pb_nc, packed_nc.data(), N, bias.data(),
                    true, 1);
  EXPECT_EQ(0, std::memcmp(raw.data(), packed_nc.data(),
                           raw.size() * sizeof(float)));
}

TEST(Gemm, I16ExactAgainstNaiveInt64) {
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> d(-500, 500);
  const int M = 19, N = 23, K = 301;
  std::vector<std::int16_t> A(std::size_t(M) * K), B(std::size_t(K) * N);
  for (auto& x : A) x = std::int16_t(d(rng));
  for (auto& x : B) x = std::int16_t(d(rng));
  std::vector<std::int64_t> got(std::size_t(M) * N), want(std::size_t(M) * N);
  kernels::gemm_i16(M, N, K, A.data(), K, B.data(), N, got.data(), N, 1);
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < N; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < K; ++k) {
        acc += std::int64_t(A[i * K + k]) * B[k * N + j];
      }
      want[std::size_t(i) * N + j] = acc;
    }
  }
  EXPECT_EQ(got, want);
}

TEST(Gemm, ThreadCountInvarianceBytewise) {
  ThreadGuard guard;
  std::mt19937 rng(17);
  const int M = 61, N = 147, K = 333;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  std::vector<float> serial(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, serial.data(), N,
                    bias.data(), true, 1);
  for (int t : {2, 3, 5, 8}) {
    std::vector<float> par(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, par.data(), N,
                      bias.data(), true, t);
    EXPECT_EQ(0, std::memcmp(serial.data(), par.data(),
                             serial.size() * sizeof(float)))
        << "threads=" << t;
  }
}

// ------------------------------------------- randomized conv equivalence --
struct ConvCase {
  int in_c, out_c, hw, k, stride, pad;
};

TEST(ConvKernels, RandomGeometriesAgreeAcrossAlgorithms) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> chan(1, 17), spatial(5, 23);
  std::uniform_int_distribution<int> kidx(0, 2), stride_d(1, 2), pad_d(0, 2);
  const int kernels_by_idx[3] = {1, 3, 5};
  int done = 0;
  while (done < 20) {
    ConvCase c{chan(rng), chan(rng),    spatial(rng),
               kernels_by_idx[kidx(rng)], stride_d(rng), pad_d(rng)};
    if (c.hw + 2 * c.pad < c.k) continue;  // degenerate output
    ++done;
    SCOPED_TRACE(::testing::Message()
                 << "in_c=" << c.in_c << " out_c=" << c.out_c << " hw=" << c.hw
                 << " k=" << c.k << " stride=" << c.stride
                 << " pad=" << c.pad);
    Tensor in(c.in_c, c.hw, c.hw);
    FilterBank f(c.out_c, c.in_c, c.k);
    std::vector<float> bias(std::size_t(c.out_c));
    nn::fill_deterministic(in, 100 + std::uint32_t(done));
    nn::fill_deterministic(f, 200 + std::uint32_t(done));
    nn::fill_deterministic(bias, 300 + std::uint32_t(done));
    const bool relu = (done % 2) == 0;

    const Tensor direct =
        nn::conv_reference_scalar(in, f, bias, c.stride, c.pad, relu);
    const Tensor fast =
        nn::conv_reference(in, f, bias, c.stride, c.pad, relu);
    const Tensor im2col =
        algo::conv_im2col(in, f, bias, c.stride, c.pad, relu);
    EXPECT_LE(fast.max_abs_diff(direct), 1e-4f);
    EXPECT_LE(im2col.max_abs_diff(direct), 1e-4f);

    if (algo::winograd_applicable(c.k, c.stride)) {
      for (int m : {2, 4}) {
        const algo::WinogradTransform t = algo::winograd(m, c.k);
        const Tensor wino = algo::winograd_conv(t, in, f, bias, c.pad, relu);
        EXPECT_LE(wino.max_abs_diff(direct), 1e-3f) << "F(" << m << ",3)";
      }
    }
  }
}

TEST(ConvKernels, FixedPathsBitExactAgainstScalarSeed) {
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> chan(1, 12), spatial(5, 19);
  std::uniform_int_distribution<int> stride_d(1, 2), pad_d(0, 2);
  for (int i = 0; i < 10; ++i) {
    const int in_c = chan(rng), out_c = chan(rng), hw = spatial(rng);
    const int stride = stride_d(rng), pad = pad_d(rng), k = 3;
    SCOPED_TRACE(::testing::Message() << "in_c=" << in_c << " out_c=" << out_c
                                      << " hw=" << hw << " stride=" << stride
                                      << " pad=" << pad);
    Tensor in(in_c, hw, hw);
    FilterBank f(out_c, in_c, k);
    std::vector<float> bias(static_cast<std::size_t>(out_c));
    nn::fill_deterministic(in, 400 + std::uint32_t(i));
    nn::fill_deterministic(f, 500 + std::uint32_t(i));
    nn::fill_deterministic(bias, 600 + std::uint32_t(i));
    const bool relu = (i % 2) == 0;

    const Tensor want = algo::conv_direct_fixed_scalar(
        in, f, bias, stride, pad, relu, 12, 13, 10);
    const Tensor got =
        algo::conv_direct_fixed(in, f, bias, stride, pad, relu, 12, 13, 10);
    EXPECT_EQ(0.0f, got.max_abs_diff(want));

    if (stride == 1) {
      const algo::WinogradTransform t = algo::winograd(4, k);
      const Tensor wwant = algo::winograd_conv_fixed_scalar(
          t, in, f, bias, pad, relu, 12, 10);
      const Tensor wgot =
          algo::winograd_conv_fixed(t, in, f, bias, pad, relu, 12, 10);
      EXPECT_EQ(0.0f, wgot.max_abs_diff(wwant));
    }
  }
}

TEST(ConvKernels, PretransformedMatchesOnTheFlyExactly) {
  // A plan packed once and reused (how the pipeline's filter cache and the
  // benches run it) gives exactly the bytes of the pack-per-call entry.
  Tensor in(6, 14, 14);
  FilterBank f(5, 6, 3);
  std::vector<float> bias(5);
  nn::fill_deterministic(in, 1);
  nn::fill_deterministic(f, 2);
  nn::fill_deterministic(bias, 3);
  const algo::WinogradTransform t = algo::winograd_f4x3();
  const kernels::WinogradPlan plan = algo::pack_winograd_plan(t, f);
  const Tensor a = algo::winograd_conv(t, in, f, bias, 1, true);
  for (int rep = 0; rep < 2; ++rep) {
    Tensor b(5, 14, 14);
    kernels::winograd_conv_f32(plan, in.data(), 14, 14, 1, bias.data(), true,
                               b.data(), 14, 14, /*threads=*/1);
    EXPECT_EQ(0.0f, a.max_abs_diff(b)) << "rep " << rep;
  }
}

// The f32 strip on its own: out_c and in_c off the 8-lane and 16-wide
// register multiples, several tiles, and in_c past one KC block, so lane
// tails, NR tails and the multi-KC writeback all run; bytes must not depend
// on the thread count, in float mode or in 16-bit output mode.
TEST(ConvKernels, WinogradStripBytesIndependentOfThreads) {
  ThreadGuard guard;
  for (const int m : {2, 4, 6}) {
    SCOPED_TRACE(::testing::Message() << "F(" << m << ",3)");
    const int in_c = 261, out_c = 19, H = 11, W = 29;
    Tensor in(in_c, H, W);
    FilterBank f(out_c, in_c, 3);
    std::vector<float> bias(out_c);
    nn::fill_deterministic(in, 71);
    nn::fill_deterministic(f, 72);
    nn::fill_deterministic(bias, 73);
    const kernels::WinogradPlan plan =
        algo::pack_winograd_plan(algo::winograd(m, 3), f);
    const int tiles_w = (W + m - 1) / m, n = plan.n;
    const int strip_w = (tiles_w - 1) * m + n;
    std::vector<float> strip(std::size_t(in_c) * n * strip_w, 0.0f);
    for (int c = 0; c < in_c; ++c) {
      for (int u = 0; u < n && u < H; ++u) {
        for (int x = 0; x < W && x < strip_w; ++x) {
          strip[(std::size_t(c) * n + u) * strip_w + x] = in.at(c, u, x);
        }
      }
    }
    for (const int out_frac : {-1, 10}) {
      std::vector<std::vector<float>> got;
      for (const int threads : {1, 2, 8}) {
        std::vector<float> out(std::size_t(m) * out_c * W, -1.0f);
        std::vector<float*> rows(std::size_t(m) * out_c);
        for (std::size_t i = 0; i < rows.size(); ++i) {
          rows[i] = out.data() + i * W;
        }
        kernels::winograd_strip(plan, strip.data(), strip_w, tiles_w,
                                rows.data(), m, W, bias.data(), true,
                                out_frac, threads);
        got.push_back(std::move(out));
      }
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(got[0].data(), got[i].data(),
                                 got[0].size() * sizeof(float)))
            << "out_frac=" << out_frac << " run " << i;
      }
    }
  }
}

// The dispatched transform stamp (AVX2 where the CPU has it) against the
// forced baseline stamp: both run acc = +0, acc += a * x per nonzero
// coefficient, k ascending, so the bytes must match exactly. A stamp that
// fused the multiply-add would round differently and fail here. Lane tails
// (in_c, out_c off multiples of 8), right-clipped tiles, a bottom-clipped
// strip, ReLU and 16-bit output all run.
TEST(ConvKernels, WinogradTransformStampsByteIdentical) {
  const int cases[][2] = {{2, 3}, {4, 3}, {6, 3}, {2, 5},
                          {4, 5}, {6, 5}, {4, 7}};
  for (const auto& c : cases) {
    const int m = c[0], r = c[1];
    SCOPED_TRACE(::testing::Message() << "F(" << m << "," << r << ")");
    const int in_c = 13, out_c = 11, H = 2 * m + r, W = 3 * m + 1;
    FilterBank f(out_c, in_c, r);
    Tensor in(in_c, H, W);
    std::vector<float> bias(out_c);
    nn::fill_deterministic(in, 81);
    nn::fill_deterministic(f, 82);
    nn::fill_deterministic(bias, 83);
    const kernels::WinogradPlan plan =
        algo::pack_winograd_plan(algo::winograd(m, r), f);
    const int n = plan.n, out_w = W - r + 1;
    const int tiles_w = (out_w + m - 1) / m;
    ASSERT_NE(0, out_w % m) << "the last tile must be right-clipped";
    const int strip_w = (tiles_w - 1) * m + n;
    std::vector<float> strip(std::size_t(in_c) * n * strip_w, 0.0f);
    for (int ch = 0; ch < in_c; ++ch) {
      for (int u = 0; u < n && u < H; ++u) {
        for (int x = 0; x < W && x < strip_w; ++x) {
          strip[(std::size_t(ch) * n + u) * strip_w + x] = in.at(ch, u, x);
        }
      }
    }
    for (const int rows_out : {m, m - 1}) {
      for (const bool relu : {false, true}) {
        for (const int out_frac : {-1, 0, 10}) {
          std::vector<float> got[2];
          for (int stamp = 0; stamp < 2; ++stamp) {
            std::vector<float> out(std::size_t(m) * out_c * out_w, -1.0f);
            std::vector<float*> rows(std::size_t(m) * out_c);
            for (std::size_t i = 0; i < rows.size(); ++i) {
              rows[i] = out.data() + i * out_w;
            }
            const auto strip_fn = stamp == 0
                                      ? &kernels::winograd_strip
                                      : &kernels::fallback::winograd_strip;
            strip_fn(plan, strip.data(), strip_w, tiles_w, rows.data(),
                     rows_out, out_w, bias.data(), relu, out_frac, 1);
            got[stamp] = std::move(out);
          }
          EXPECT_EQ(0, std::memcmp(got[0].data(), got[1].data(),
                                   got[0].size() * sizeof(float)))
              << "rows_out=" << rows_out << " relu=" << relu
              << " out_frac=" << out_frac;
        }
      }
    }
  }
}

TEST(ConvKernels, ThreadCountInvarianceBytewise) {
  ThreadGuard guard;
  Tensor in(24, 30, 30);
  FilterBank f(20, 24, 3);
  std::vector<float> bias(20);
  nn::fill_deterministic(in, 5);
  nn::fill_deterministic(f, 6);
  nn::fill_deterministic(bias, 7);
  const algo::WinogradTransform t = algo::winograd_f4x3();

  kernels::set_num_threads(1);
  const Tensor im2col1 = algo::conv_im2col(in, f, bias, 1, 1, true);
  const Tensor wino1 = algo::winograd_conv(t, in, f, bias, 1, true);
  const Tensor fixed1 =
      algo::conv_direct_fixed(in, f, bias, 1, 1, true, 12, 13, 10);
  const Tensor wfix1 =
      algo::winograd_conv_fixed(t, in, f, bias, 1, true, 12, 10);
  for (int threads : {2, 4, 7}) {
    kernels::set_num_threads(threads);
    const Tensor im2colN = algo::conv_im2col(in, f, bias, 1, 1, true);
    const Tensor winoN = algo::winograd_conv(t, in, f, bias, 1, true);
    const Tensor fixedN =
        algo::conv_direct_fixed(in, f, bias, 1, 1, true, 12, 13, 10);
    const Tensor wfixN =
        algo::winograd_conv_fixed(t, in, f, bias, 1, true, 12, 10);
    const auto bytes = [](const Tensor& x) {
      return std::size_t(x.size()) * sizeof(float);
    };
    EXPECT_EQ(0, std::memcmp(im2col1.data(), im2colN.data(), bytes(im2col1)))
        << "im2col threads=" << threads;
    EXPECT_EQ(0, std::memcmp(wino1.data(), winoN.data(), bytes(wino1)))
        << "winograd threads=" << threads;
    EXPECT_EQ(0, std::memcmp(fixed1.data(), fixedN.data(), bytes(fixed1)))
        << "fixed threads=" << threads;
    EXPECT_EQ(0, std::memcmp(wfix1.data(), wfixN.data(), bytes(wfix1)))
        << "wino fixed threads=" << threads;
  }
}

// -------------------------------------------------------------- pipeline --
TEST(PipelineKernels, RepeatedRunMatchesFreshPipeline) {
  // reset() must restore pristine streaming state: a second image through
  // the same engines equals a fresh pipeline bit-for-bit.
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 9);
  Tensor a(net[0].out), b(net[0].out);
  nn::fill_deterministic(a, 21);
  nn::fill_deterministic(b, 22);

  arch::FusionPipeline pipe(net, ws);
  const Tensor a1 = pipe.run(a);
  const Tensor b1 = pipe.run(b);
  const Tensor a2 = pipe.run(a);
  arch::FusionPipeline fresh(net, ws);
  EXPECT_EQ(0.0f, a1.max_abs_diff(a2));
  EXPECT_EQ(0.0f, b1.max_abs_diff(fresh.run(b)));
}

TEST(PipelineKernels, RunBatchMatchesSequentialRuns) {
  ThreadGuard guard;
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 9);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.emplace_back(net[0].out);
    nn::fill_deterministic(inputs.back(), 30 + std::uint32_t(i));
  }
  arch::FusionPipeline pipe(net, ws);
  std::vector<Tensor> want;
  want.reserve(inputs.size());
  for (const Tensor& in : inputs) want.push_back(pipe.run(in));
  for (int threads : {1, 3}) {
    const std::vector<Tensor> got = pipe.run_batch(inputs, threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(0.0f, got[i].max_abs_diff(want[i]))
          << "image " << i << " threads=" << threads;
    }
  }
}

TEST(PipelineKernels, RunBatchWinogradSharesCachedPlans) {
  ThreadGuard guard;
  nn::Network net("n");
  net.input({3, 12, 12});
  net.conv(5, 3, 1, 1, "c1");
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 17);
  std::vector<arch::LayerChoice> ch(1);
  ch[0].algo = fpga::ConvAlgo::kWinograd;
  ch[0].wino_m = 4;
  arch::FusionPipeline pipe(net, ws, ch);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.emplace_back(net[0].out);
    nn::fill_deterministic(inputs.back(), 40 + std::uint32_t(i));
  }
  std::vector<Tensor> want;
  for (const Tensor& in : inputs) want.push_back(pipe.run(in));
  const std::vector<Tensor> got = pipe.run_batch(inputs, 2);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(0.0f, got[i].max_abs_diff(want[i])) << "image " << i;
  }
}

// --------------------------------------------- SIMD vs scalar fallback --
// The fallback:: entry points run the identical blocking/packing/accumulation
// structure with the scalar micro-kernel. Integer datapaths must match
// bit-exactly (integer addition commutes); float datapaths may differ only by
// FMA contraction inside the AVX2 stamp, so they are tolerance-bounded.

TEST(Gemm, SimdMatchesScalarFallbackF32) {
  std::mt19937 rng(101);
  const int cases[][3] = {{5, 7, 3}, {97, 33, 257}, {130, 144, 520}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    const auto A = random_floats(std::size_t(M) * K, rng);
    const auto B = random_floats(std::size_t(K) * N, rng);
    const auto bias = random_floats(std::size_t(M), rng);
    std::vector<float> simd(std::size_t(M) * N), scalar(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, simd.data(), N,
                      bias.data(), /*relu=*/false, 1);
    kernels::fallback::gemm_f32(M, N, K, A.data(), K, B.data(), N,
                                scalar.data(), N, bias.data(), false, 1);
    for (std::size_t i = 0; i < simd.size(); ++i) {
      EXPECT_NEAR(simd[i], scalar[i], 1e-3f)
          << "M=" << M << " N=" << N << " K=" << K << " i=" << i;
    }
  }
}

TEST(Gemm, SimdBitExactAgainstScalarFallbackI16) {
  std::mt19937 rng(107);
  std::uniform_int_distribution<int> d(-2000, 2000);
  const int cases[][3] = {{4, 8, 16}, {19, 23, 301}, {120, 70, 512}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    std::vector<std::int16_t> A(std::size_t(M) * K), B(std::size_t(K) * N);
    for (auto& x : A) x = std::int16_t(d(rng));
    for (auto& x : B) x = std::int16_t(d(rng));
    std::vector<std::int64_t> simd(std::size_t(M) * N),
        scalar(std::size_t(M) * N);
    kernels::gemm_i16(M, N, K, A.data(), K, B.data(), N, simd.data(), N, 1);
    kernels::fallback::gemm_i16(M, N, K, A.data(), K, B.data(), N,
                                scalar.data(), N, 1);
    EXPECT_EQ(simd, scalar) << "M=" << M << " N=" << N << " K=" << K;
  }
}

// A geometry spanning several MC blocks and NR panels so the 2D cooperative
// tile grid genuinely has both dimensions; results must stay byte-identical
// for every thread count (disjoint output tiles, serial KC outer loop).
TEST(Gemm, ThreadInvarianceAcrossMcBlocks2D) {
  ThreadGuard guard;
  std::mt19937 rng(109);
  const int M = 250, N = 200, K = 300;  // 3 MC blocks x many NR panels
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  std::vector<float> serial(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, serial.data(), N,
                    bias.data(), true, 1);
  std::vector<std::int16_t> Ai(std::size_t(M) * K), Bi(std::size_t(K) * N);
  std::uniform_int_distribution<int> d(-500, 500);
  for (auto& x : Ai) x = std::int16_t(d(rng));
  for (auto& x : Bi) x = std::int16_t(d(rng));
  std::vector<std::int64_t> serial_i(std::size_t(M) * N);
  kernels::gemm_i16(M, N, K, Ai.data(), K, Bi.data(), N, serial_i.data(), N,
                    1);
  for (int t : {2, 3, 5, 8}) {
    std::vector<float> par(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, par.data(), N,
                      bias.data(), true, t);
    EXPECT_EQ(0, std::memcmp(serial.data(), par.data(),
                             serial.size() * sizeof(float)))
        << "f32 threads=" << t;
    std::vector<std::int64_t> par_i(std::size_t(M) * N);
    kernels::gemm_i16(M, N, K, Ai.data(), K, Bi.data(), N, par_i.data(), N, t);
    EXPECT_EQ(serial_i, par_i) << "i16 threads=" << t;
  }
}

// ----------------------------------------------------------- scratch arena --
TEST(Arena, ScopeRestoresWatermarkAndAlignsAllocations) {
  kernels::ScratchArena& a = kernels::ScratchArena::tls();
  const std::size_t used_before = a.used();
  {
    kernels::ScratchArena::Scope outer(a);
    float* p = a.alloc<float>(1001);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(p) % 64);
    p[0] = 1.0f;
    p[1000] = 2.0f;  // touch both ends
    {
      kernels::ScratchArena::Scope inner(a);
      double* q = a.alloc<double>(333);
      EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(q) % 64);
      q[332] = 3.0;
      EXPECT_GT(a.used(), used_before);
    }
    // Inner scope closed: its bytes are returned, outer's still live.
    EXPECT_EQ(1.0f, p[0]);
    EXPECT_EQ(2.0f, p[1000]);
  }
  EXPECT_EQ(used_before, a.used());
}

TEST(Arena, OverflowCoalescesAndStopsAllocating) {
  kernels::ScratchArena arena;  // fresh, cold arena
  const auto pattern = [&arena] {
    kernels::ScratchArena::Scope s(arena);
    char* small = arena.alloc<char>(100);
    small[0] = 'a';
    // Large enough to force overflow growth past the initial block.
    char* big = arena.alloc<char>(std::size_t(1) << 20);
    big[(std::size_t(1) << 20) - 1] = 'z';
  };
  pattern();  // cold pass: opens/grows blocks
  const std::size_t warm_allocs = arena.system_allocations();
  const std::size_t warm_cap = arena.capacity();
  EXPECT_GE(warm_cap, arena.high_water());  // coalesced to the high water
  for (int i = 0; i < 4; ++i) pattern();
  EXPECT_EQ(warm_allocs, arena.system_allocations())
      << "warm arena must not touch the system allocator";
  EXPECT_EQ(warm_cap, arena.capacity());
  EXPECT_EQ(0u, arena.used());
}

// After the first image has sized the thread's arena, repeated batches must
// run with zero additional system allocations (reset-don't-free).
TEST(Arena, SteadyStateRunBatchDoesNotGrowArena) {
  ThreadGuard guard;
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 21);
  arch::FusionPipeline pipe(net, ws);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.emplace_back(net[0].out);
    nn::fill_deterministic(inputs.back(), 60 + std::uint32_t(i));
  }
  (void)pipe.run(inputs[0]);  // first image sizes the arena
  kernels::ScratchArena& a = kernels::ScratchArena::tls();
  const std::size_t warm_allocs = a.system_allocations();
  std::vector<Tensor> last;
  for (int rep = 0; rep < 3; ++rep) {
    last = pipe.run_batch(inputs, /*threads=*/1);  // inline on this thread
  }
  EXPECT_EQ(warm_allocs, a.system_allocations())
      << "steady-state batches must reuse the warm arena";
  EXPECT_EQ(0u, a.used());
  ASSERT_EQ(inputs.size(), last.size());
  EXPECT_EQ(0.0f, last[0].max_abs_diff(pipe.run(inputs[0])));
}

// ------------------------------------------------------- chunked parallel --
TEST(Parallel, ChunkedCoversEveryIndexExactlyOnceUnderExceptions) {
  ThreadGuard guard;
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  bool caught = false;
  try {
    kernels::parallel_for(n, /*grain=*/7, /*threads=*/8,
                          [&](std::size_t i) {
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                            if (i % 97 == 0) {
                              throw std::runtime_error("injected");
                            }
                          });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught) << "first worker exception must be rethrown";
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(1, hits[i].load()) << "index " << i;
  }
}

TEST(Parallel, RangesPartitionIndexSpaceExactly) {
  ThreadGuard guard;
  const std::size_t n = 537, grain = 10;
  std::vector<std::atomic<int>> hits(n);
  kernels::parallel_for_ranges(n, grain, 4,
                               [&](std::size_t lo, std::size_t hi) {
                                 ASSERT_LT(lo, hi);
                                 ASSERT_LE(hi - lo, grain);
                                 for (std::size_t i = lo; i < hi; ++i) {
                                   hits[i].fetch_add(1,
                                                     std::memory_order_relaxed);
                                 }
                               });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(1, hits[i].load()) << "index " << i;
  }
}

TEST(Parallel, ResolveThreadsRespectsHardwareCap) {
  const int hw = int(std::thread::hardware_concurrency());
  const int cap = hw > 0 ? hw : 1;
  EXPECT_EQ(cap, kernels::resolve_threads(0));       // 0 = all cores
  EXPECT_EQ(cap, kernels::resolve_threads(-4));      // negative = all cores
  EXPECT_EQ(1, kernels::resolve_threads(1));
  EXPECT_EQ(cap, kernels::resolve_threads(1 << 20));  // clamped, never over
  EXPECT_LE(kernels::resolve_threads(2), 2);
}

// ----------------------------------------------------------- int8 datapath --

std::vector<std::int8_t> random_i8(std::size_t n, std::mt19937& rng) {
  std::uniform_int_distribution<int> d(-128, 127);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = std::int8_t(d(rng));
  return v;
}

TEST(GemmI8, I32AccumulationExactAgainstNaive) {
  std::mt19937 rng(29);
  const int M = 21, N = 35, K = 530;  // straddles the KC=256 panel boundary
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::vector<std::int32_t> got(std::size_t(M) * N), want(std::size_t(M) * N);
  kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, got.data(), N, 1);
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < N; ++j) {
      std::int32_t acc = 0;
      for (int k = 0; k < K; ++k) {
        acc += std::int32_t(A[i * K + k]) * B[k * N + j];
      }
      want[std::size_t(i) * N + j] = acc;
    }
  }
  EXPECT_EQ(got, want);
}

TEST(GemmI8, RequantizeRoundsToEvenAndSaturates) {
  using kernels::requantize_i32;
  // Round-to-nearest-even on exact .5 ties (fixed::rint_sat).
  EXPECT_EQ(0, requantize_i32(1, 0.5f, 0, false));    // 0.5 -> 0 (even)
  EXPECT_EQ(2, requantize_i32(3, 0.5f, 0, false));    // 1.5 -> 2 (even)
  EXPECT_EQ(2, requantize_i32(5, 0.5f, 0, false));    // 2.5 -> 2 (even)
  EXPECT_EQ(-2, requantize_i32(-3, 0.5f, 0, false));  // -1.5 -> -2 (even)
  // Saturation to the i8 range, both directions.
  EXPECT_EQ(127, requantize_i32(100000, 1.0f, 0, false));
  EXPECT_EQ(-128, requantize_i32(-100000, 1.0f, 0, false));
  // Zero-point offsets after scaling; saturation applies post-offset.
  EXPECT_EQ(13, requantize_i32(10, 1.0f, 3, false));
  EXPECT_EQ(127, requantize_i32(126, 1.0f, 100, false));
  // ReLU clamps at the output zero-point, not at code 0.
  EXPECT_EQ(5, requantize_i32(-40, 1.0f, 5, true));
  EXPECT_EQ(45, requantize_i32(40, 1.0f, 5, true));
}

TEST(GemmI8, WritebackMatchesScalarEpiloguePerChannelAndPerTensor) {
  std::mt19937 rng(31);
  const int M = 17, N = 29, K = 310;
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::vector<std::int32_t> acc(std::size_t(M) * N);
  kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, acc.data(), N, 1);

  std::uniform_real_distribution<float> sd(1e-4f, 5e-3f);
  std::vector<float> scales(static_cast<std::size_t>(M));
  for (auto& s : scales) s = sd(rng);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(M));
  std::uniform_int_distribution<int> bd(-5000, 5000);
  for (auto& b : bias) b = bd(rng);

  for (const bool per_channel : {true, false}) {
    for (const bool relu : {false, true}) {
      kernels::QuantParams q{scales.data(), per_channel, bias.data(),
                             /*zero_point=*/-7, relu};
      std::vector<std::int8_t> got(std::size_t(M) * N);
      kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, got.data(), N, q,
                       1);
      for (int i = 0; i < M; ++i) {
        const float s = per_channel ? scales[std::size_t(i)] : scales[0];
        for (int j = 0; j < N; ++j) {
          const std::int8_t want = kernels::requantize_i32(
              acc[std::size_t(i) * N + j] + bias[std::size_t(i)], s, -7,
              relu);
          ASSERT_EQ(want, got[std::size_t(i) * N + j])
              << "i=" << i << " j=" << j << " per_channel=" << per_channel
              << " relu=" << relu;
        }
      }
    }
  }
}

TEST(GemmI8, SaturatingWritebackBothRails) {
  // All-max operands drive the accumulator far past the i8 range in both
  // directions; the epilogue must saturate, not wrap.
  const int M = 2, N = 3, K = 64;
  std::vector<std::int8_t> A(std::size_t(M) * K), B(std::size_t(K) * N);
  for (int k = 0; k < K; ++k) {
    A[k] = 127;                  // row 0: +127 * +127 * K
    A[K + k] = 127;              // row 1 vs negative B column
    for (int j = 0; j < N; ++j) B[k * N + j] = (j == 2) ? -128 : 127;
  }
  const float one = 1.0f;
  kernels::QuantParams q{&one, false, nullptr, 0, false};
  std::vector<std::int8_t> C(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, C.data(), N, q, 1);
  for (int i = 0; i < M; ++i) {
    EXPECT_EQ(127, C[std::size_t(i) * N + 0]);
    EXPECT_EQ(127, C[std::size_t(i) * N + 1]);
    EXPECT_EQ(-128, C[std::size_t(i) * N + 2]);
  }
}

TEST(GemmI8, SimdBitExactAgainstScalarFallback) {
  std::mt19937 rng(37);
  const int M = 43, N = 61, K = 333;
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::uniform_real_distribution<float> sd(1e-4f, 1e-2f);
  std::vector<float> scales(static_cast<std::size_t>(M));
  for (auto& s : scales) s = sd(rng);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(M));
  std::uniform_int_distribution<int> bd(-2000, 2000);
  for (auto& b : bias) b = bd(rng);
  kernels::QuantParams q{scales.data(), true, bias.data(), 4, true};

  std::vector<std::int8_t> simd(std::size_t(M) * N), ref(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, simd.data(), N, q, 1);
  kernels::fallback::gemm_i8(M, N, K, A.data(), K, B.data(), N, ref.data(),
                             N, q, 1);
  EXPECT_EQ(0, std::memcmp(simd.data(), ref.data(), simd.size()));

  std::vector<std::int32_t> simd32(std::size_t(M) * N),
      ref32(std::size_t(M) * N);
  kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, simd32.data(), N,
                       1);
  kernels::fallback::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N,
                                 ref32.data(), N, 1);
  EXPECT_EQ(simd32, ref32);
}

TEST(GemmI8, ThreadAndBlockingInvarianceBytewise) {
  ThreadGuard tguard;
  BlockingGuard bguard;
  std::mt19937 rng(41);
  const int M = 53, N = 87, K = 700;  // multi-KC under every kc below
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::uniform_real_distribution<float> sd(1e-4f, 1e-2f);
  std::vector<float> scales(static_cast<std::size_t>(M));
  for (auto& s : scales) s = sd(rng);
  kernels::QuantParams q{scales.data(), true, nullptr, -3, false};

  kernels::clear_tuned_blocking();
  std::vector<std::int8_t> want(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, want.data(), N, q, 1);

  const kernels::BlockingParams overrides[] = {
      {},                  // shipped defaults
      {64, 128, 64, 4},    // small everything, NC blocking on
      {256, 512, 0, 0},    // two uneven KC steps (512 + 188)
      {8, 16, 32, 1},      // degenerate minima
  };
  for (const auto& bp : overrides) {
    kernels::set_blocking(kernels::Datapath::kI8, bp);
    for (int t : {1, 2, 5, 8}) {
      std::vector<std::int8_t> got(std::size_t(M) * N);
      kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, got.data(), N, q,
                       t);
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size()))
          << "mc=" << bp.mc << " kc=" << bp.kc << " nc=" << bp.nc
          << " grain=" << bp.grain << " threads=" << t;
    }
  }
}

TEST(GemmI8, PackedMatchesRawAcrossBlockingChange) {
  BlockingGuard bguard;
  std::mt19937 rng(43);
  const int M = 31, N = 44, K = 290;
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  const float s = 0.002f;
  kernels::QuantParams q{&s, false, nullptr, 0, false};

  // Pack with an explicit blocking, then point dispatch somewhere else: the
  // pack must keep using the blocking it was built with.
  const kernels::PackedLhsI8 pa(A.data(), M, K, K,
                                kernels::BlockingParams{64, 128, 0, 0});
  EXPECT_EQ(64, pa.mc());
  EXPECT_EQ(128, pa.kc());
  kernels::set_blocking(kernels::Datapath::kI8, {256, 512, 256, 8});

  std::vector<std::int8_t> raw(std::size_t(M) * N), packed(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, raw.data(), N, q, 1);
  kernels::gemm_i8(pa, N, B.data(), N, packed.data(), N, q, 1);
  EXPECT_EQ(0, std::memcmp(raw.data(), packed.data(), raw.size()));
}

TEST(GemmI8, Im2colUsesZeroPointPadding) {
  // 1 channel, 2x2 image, 3x3 kernel, pad 1: every patch touches padding.
  const std::int8_t img[4] = {10, 20, 30, 40};
  const std::int8_t pad = -7;  // asymmetric grid: real 0.0 != code 0
  std::vector<std::int8_t> mat(std::size_t(9) * 4);
  kernels::im2col_i8(img, 1, 2, 2, 3, 1, 1, 2, 2, mat.data(), pad);
  // Column 0 (output pixel (0,0)): taps off the top/left edge must be the
  // zero-point code, the in-bounds taps the image values.
  EXPECT_EQ(pad, mat[0 * 4 + 0]);  // (-1,-1)
  EXPECT_EQ(pad, mat[1 * 4 + 0]);  // (-1, 0)
  EXPECT_EQ(pad, mat[3 * 4 + 0]);  // ( 0,-1)
  EXPECT_EQ(10, mat[4 * 4 + 0]);   // ( 0, 0)
  EXPECT_EQ(20, mat[5 * 4 + 0]);   // ( 0, 1)
  EXPECT_EQ(30, mat[7 * 4 + 0]);   // ( 1, 0)
  EXPECT_EQ(40, mat[8 * 4 + 0]);   // ( 1, 1)
  int pads = 0;
  for (std::int8_t v : mat) pads += (v == pad);
  EXPECT_EQ(20, pads);  // 9*4 taps, 16 in-bounds reads
}

TEST(ConvKernels, QuantI8BlockedMatchesScalarSeedBitExact) {
  ThreadGuard guard;
  std::mt19937 rng(47);
  const ConvCase cases[] = {
      {3, 8, 11, 3, 1, 1}, {16, 7, 9, 1, 1, 0},  {5, 13, 14, 5, 2, 2},
      {9, 9, 8, 3, 2, 1},  {12, 6, 17, 3, 1, 0},
  };
  for (const auto& c : cases) {
    Tensor in(c.in_c, c.hw, c.hw);
    FilterBank f(c.out_c, c.in_c, c.k);
    nn::fill_deterministic(in, 11);
    nn::fill_deterministic(f, 12);
    std::vector<float> bias(std::size_t(c.out_c));
    nn::fill_deterministic(bias, 13);

    float in_mn = 0.0f, in_mx = 0.0f;
    for (float v : in.vec()) {
      in_mn = std::min(in_mn, v);
      in_mx = std::max(in_mx, v);
    }
    // The output range only shapes the grid; any sane bracket works.
    const algo::Int8ConvQuant q =
        algo::make_int8_conv_quant(f, in_mn, in_mx, -40.0f, 40.0f);

    const Tensor want = algo::conv_quant_i8_scalar(in, f, bias, c.stride,
                                                   c.pad, true, q);
    for (int t : {1, 3}) {
      kernels::set_num_threads(t);
      const Tensor got =
          algo::conv_quant_i8(in, f, bias, c.stride, c.pad, true, q);
      ASSERT_EQ(want.shape(), got.shape());
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                               std::size_t(want.size()) * sizeof(float)))
          << "in_c=" << c.in_c << " out_c=" << c.out_c << " k=" << c.k
          << " stride=" << c.stride << " threads=" << t;
    }
  }
  kernels::set_num_threads(1);
}

// ---------------------------------------------------- blocking tuning cache --

TEST(Blocking, SanitizePinsFloatKcAndClampsRanges) {
  BlockingGuard guard;
  // Float datapaths: KC is part of the accumulation grouping, so a tuned KC
  // must be forced back to the default.
  kernels::set_blocking(kernels::Datapath::kF32, {128, 512, 0, 0});
  EXPECT_EQ(kernels::default_blocking(kernels::Datapath::kF32).kc,
            kernels::blocking_for(kernels::Datapath::kF32).kc);
  EXPECT_EQ(128, kernels::blocking_for(kernels::Datapath::kF32).mc);
  EXPECT_FALSE(kernels::kc_tunable(kernels::Datapath::kF32));

  // Integer datapaths: exact accumulation commutes, KC tunes freely.
  kernels::set_blocking(kernels::Datapath::kI8, {130, 512, 7, 9999});
  const auto bp = kernels::blocking_for(kernels::Datapath::kI8);
  EXPECT_TRUE(kernels::kc_tunable(kernels::Datapath::kI8));
  EXPECT_EQ(512, bp.kc);
  EXPECT_EQ(128, bp.mc);    // clamped to a multiple of MR=4
  EXPECT_EQ(32, bp.nc);     // nonzero NC clamped up to the minimum
  EXPECT_EQ(4096, bp.grain);
}

TEST(Blocking, CacheJsonRoundTripsAndIgnoresForeignEntries) {
  BlockingGuard guard;
  kernels::set_blocking(kernels::Datapath::kI8, {192, 384, 256, 8});
  kernels::set_blocking(kernels::Datapath::kF32, {64, 256, 512, 0});
  const std::string json = kernels::tuning_cache_to_json();

  kernels::clear_tuned_blocking();
  EXPECT_EQ(kernels::default_blocking(kernels::Datapath::kI8),
            kernels::blocking_for(kernels::Datapath::kI8));
  EXPECT_EQ(2, kernels::load_tuning_cache_json(json));
  EXPECT_EQ((kernels::BlockingParams{192, 384, 256, 8}),
            kernels::blocking_for(kernels::Datapath::kI8));
  EXPECT_EQ((kernels::BlockingParams{64, 256, 512, 0}),
            kernels::blocking_for(kernels::Datapath::kF32));

  // Entries measured on another machine must not apply.
  kernels::clear_tuned_blocking();
  std::string foreign = json;
  const std::string me = kernels::machine_topology_key();
  for (std::size_t at = foreign.find(me); at != std::string::npos;
       at = foreign.find(me, at + 1)) {
    foreign.replace(at, me.size(), "other-box");
  }
  EXPECT_EQ(0, kernels::load_tuning_cache_json(foreign));
  EXPECT_EQ(kernels::default_blocking(kernels::Datapath::kI8),
            kernels::blocking_for(kernels::Datapath::kI8));

  // Entries for datapaths this build does not have (the retired "f64" and
  // "f32d") are skipped; the rest of the document still applies.
  kernels::clear_tuned_blocking();
  std::string retired = json;
  const std::size_t entries = retired.find("\"entries\": [");
  ASSERT_NE(std::string::npos, entries);
  for (const char* gone : {"f64", "f32d"}) {
    retired.insert(entries + 12, std::string("\n    {\"datapath\": \"") +
                                     gone + "\", \"machine\": \"" + me +
                                     "\", \"mc\": 64, \"kc\": 256, "
                                     "\"nc\": 0, \"grain\": 0},");
  }
  EXPECT_EQ(2, kernels::load_tuning_cache_json(retired));
  EXPECT_EQ((kernels::BlockingParams{192, 384, 256, 8}),
            kernels::blocking_for(kernels::Datapath::kI8));

  // A version bump invalidates the whole document.
  kernels::clear_tuned_blocking();
  std::string stale = json;
  const std::string vkey = "\"version\": ";
  const std::size_t vat = stale.find(vkey);
  ASSERT_NE(std::string::npos, vat);
  stale.insert(vat + vkey.size(), "9");
  EXPECT_EQ(0, kernels::load_tuning_cache_json(stale));
  EXPECT_EQ(kernels::default_blocking(kernels::Datapath::kF32),
            kernels::blocking_for(kernels::Datapath::kF32));
}

}  // namespace
}  // namespace hetacc
