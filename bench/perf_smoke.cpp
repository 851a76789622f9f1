// Release-mode performance tripwire, run by the CI release-perf job.
//
// Guards, exit 0 = pass, 1 = fail:
//  1. Relative: the blocked im2col+GEMM path must beat the retained scalar
//     seed convolution by >= 2x single-threaded (a debug/-O0 build will not
//     pass; that is the point — the check catches regressions that quietly
//     serialize or deopt the kernel layer). Two datapath pairs must hold
//     their order single-threaded: int8 beats i16, and Winograd F(4x4,3x3)
//     (plan packed once, as the streaming engines run it) beats im2col+GEMM
//     on this 3x3 layer by at least 1.5x, as the cost model says it does.
//     Streaming must stay cheap: a one-layer FusionPipeline on AlexNet
//     conv1 (the paper's conventional-engine layer) runs within 2x of
//     whole-tensor im2col+GEMM on the same layer. The 16-bit datapath must stay near float speed: a
//     calibrated fixed Winograd conv + pool pipeline on the 3x3 layer runs
//     within 1.25x of the same pipeline in float mode.
//  2. Absolute: each guarded kernel must run within 2x of its committed
//     per-kernel baseline (bench/perf_baseline.json, path baked in via
//     HETACC_PERF_BASELINE). Each baseline is the slowest of three runs on
//     a shared 4-core x86-64 container, so the 2x threshold is headroom for
//     CI runner variance while still catching order-of-magnitude
//     regressions (e.g. losing SIMD dispatch or packing reuse).
//
// Regenerate the baseline after an intentional perf change (three runs,
// keeping each row's slowest value):
//   perf_smoke --write-baseline path/to/perf_baseline.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "arch/pipeline.h"
#include "kernels/blocking.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"
#include "kernels/wino_gemm.h"
#include "nn/network.h"
#include "nn/reference.h"
#include "nn/weights.h"
#include "quant/calibration.h"

using namespace hetacc;

namespace {

template <typename Fn>
double best_ms(const Fn& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup: pages, scratch-arena high water, worker pool
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

volatile float g_sink = 0.0f;

struct Measurement {
  const char* kernel;
  double ms;
};

/// Minimal scan for `"<key>": <number>` in a small flat JSON object.
double json_lookup(const std::string& text, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  double v = -1.0;
  if (std::sscanf(text.c_str() + at + needle.size(), " %lf", &v) != 1) {
    return -1.0;
  }
  return v;
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const char* write_path = nullptr;
  if (argc == 3 && std::strcmp(argv[1], "--write-baseline") == 0) {
    write_path = argv[2];
  }

  // VGG conv3-class layer: 64x56x56 input, 64 3x3 filters, stride 1, pad 1.
  nn::Tensor in(64, 56, 56);
  nn::FilterBank f(64, 64, 3);
  std::vector<float> bias(64);
  nn::fill_deterministic(in, 1);
  nn::fill_deterministic(f, 2);
  nn::fill_deterministic(bias, 3);
  const algo::WinogradTransform wt = algo::winograd_f4x3();
  const kernels::WinogradPlan plan = algo::pack_winograd_plan(wt, f);
  nn::Tensor wino_out(64, 56, 56);
  constexpr int kDataFrac = 12, kWeightFrac = 14, kOutFrac = 10;

  // Committed per-machine tuning cache (written by autotune_blocking). On a
  // machine with a different cache topology 0 entries apply and dispatch
  // stays on the shipped defaults — either way results are identical, the
  // cache can only change speed.
#ifdef HETACC_TUNING_CACHE
  {
    const int applied = kernels::load_tuning_cache_file(HETACC_TUNING_CACHE);
    std::printf("perf_smoke: tuning cache %s — %d entr%s applied\n",
                HETACC_TUNING_CACHE, applied < 0 ? 0 : applied,
                applied == 1 ? "y" : "ies");
  }
#endif

  kernels::set_num_threads(1);  // single-thread comparison: pure kernel win
  const double scalar = best_ms(
      [&] {
        g_sink = nn::conv_reference_scalar(in, f, bias, 1, 1, true).at(0, 0, 0);
      },
      3);

  std::vector<Measurement> measured;
  measured.push_back({"im2col_gemm", best_ms(
      [&] { g_sink = algo::conv_im2col(in, f, bias, 1, 1, true).at(0, 0, 0); },
      5)});
  measured.push_back({"winograd_f43_gemm", best_ms(
      [&] {
        kernels::winograd_conv_f32(plan, in.data(), 56, 56, 1, bias.data(),
                                   true, wino_out.data(), 56, 56,
                                   /*threads=*/1);
        g_sink = wino_out.at(0, 0, 0);
      },
      5)});
  measured.push_back({"direct_fixed_gemm", best_ms(
      [&] {
        g_sink = algo::conv_direct_fixed(in, f, bias, 1, 1, true, kDataFrac,
                                         kWeightFrac, kOutFrac)
                     .at(0, 0, 0);
      },
      5)});
  measured.push_back({"winograd_fixed_gemm", best_ms(
      [&] {
        g_sink = algo::winograd_conv_fixed(wt, in, f, bias, 1, true, kDataFrac,
                                           kOutFrac)
                     .at(0, 0, 0);
      },
      5)});

  // int8 datapath on the same geometry; recipe from the observed ranges.
  const algo::Int8ConvQuant i8q = [&] {
    const nn::Tensor ref = algo::conv_im2col(in, f, bias, 1, 1, true);
    float in_mn = 0.0f, in_mx = 0.0f, out_mn = 0.0f, out_mx = 0.0f;
    for (float v : in.vec()) {
      in_mn = std::min(in_mn, v);
      in_mx = std::max(in_mx, v);
    }
    for (float v : ref.vec()) {
      out_mn = std::min(out_mn, v);
      out_mx = std::max(out_mx, v);
    }
    return algo::make_int8_conv_quant(f, in_mn, in_mx, out_mn, out_mx);
  }();
  measured.push_back({"im2col_gemm_i8", best_ms(
      [&] {
        g_sink = algo::conv_quant_i8(in, f, bias, 1, 1, true, i8q).at(0, 0, 0);
      },
      5)});

  // AlexNet conv1 (3x227x227, 96 filters 11x11/s4, float): the streaming
  // conventional engine against the whole-tensor lowering of the same layer.
  nn::Network conv1_net("alexnet-conv1");
  conv1_net.input({3, 227, 227});
  conv1_net.conv(96, 11, 4, 0, "conv1");
  const nn::WeightStore conv1_ws = nn::WeightStore::deterministic(conv1_net, 4);
  const nn::ConvWeights& conv1_w = conv1_ws.conv(1);
  nn::Tensor conv1_in(3, 227, 227);
  nn::fill_deterministic(conv1_in, 5);
  arch::FusionPipeline conv1_pipe(conv1_net, conv1_ws);
  const double conv1_im2col = best_ms(
      [&] {
        g_sink = algo::conv_im2col(conv1_in, conv1_w.filters, conv1_w.bias, 4,
                                   0, true)
                     .at(0, 0, 0);
      },
      7);
  measured.push_back({"stream_conv1_pipeline", best_ms(
      [&] { g_sink = conv1_pipe.run(conv1_in).at(0, 0, 0); }, 7)});

  // The 3x3 layer plus a 2x2 max pool as one streaming Winograd F(4x4,3x3)
  // pipeline, calibrated onto the 16-bit datapath and in float: the fixed
  // mode's grid snapping on ingest and writeback is the difference.
  nn::Network wp_net("conv3-pool");
  wp_net.input({64, 56, 56});
  wp_net.conv(64, 3, 1, 1, "conv");
  wp_net.max_pool(2, 2, "pool");
  const nn::WeightStore wp_ws = nn::WeightStore::deterministic(wp_net, 6);
  std::vector<arch::LayerChoice> wp_choices(2);
  wp_choices[0].algo = fpga::ConvAlgo::kWinograd;
  arch::FusionPipeline wp_float(wp_net, wp_ws, wp_choices);
  const std::vector<arch::NumericMode> wp_modes =
      quant::calibrate(wp_net, wp_ws, {in}).modes();
  for (std::size_t i = 0; i < wp_choices.size(); ++i) {
    wp_choices[i].mode = wp_modes[i];
  }
  arch::FusionPipeline wp_fixed(wp_net, wp_ws, wp_choices);
  const double float_pipe_ms =
      best_ms([&] { g_sink = wp_float.run(in).at(0, 0, 0); }, 7);
  measured.push_back({"stream_fixed_pipeline", best_ms(
      [&] { g_sink = wp_fixed.run(in).at(0, 0, 0); }, 7)});

  const double blocked = measured[0].ms;
  std::printf("perf_smoke: scalar %.2f ms (1 thread, 64x56x56 * 64 3x3 "
              "filters), SIMD %s\n",
              scalar, kernels::simd_enabled() ? "on" : "off");
  for (const Measurement& m : measured) {
    std::printf("perf_smoke:   %-22s %8.2f ms\n", m.kernel, m.ms);
  }

  if (write_path) {
    std::FILE* out = std::fopen(write_path, "w");
    if (!out) {
      std::printf("perf_smoke: cannot write %s\n", write_path);
      return 1;
    }
    std::fprintf(out, "{\n");
    for (std::size_t i = 0; i < measured.size(); ++i) {
      std::fprintf(out, "  \"%s\": %.4f%s\n", measured[i].kernel,
                   measured[i].ms, i + 1 < measured.size() ? "," : "");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("perf_smoke: wrote baseline %s\n", write_path);
    return 0;
  }

  bool ok = true;

  const double speedup = scalar / blocked;
  std::printf("perf_smoke: blocked GEMM vs scalar seed — %.2fx\n", speedup);
  // The sweep shows well over 10x in Release; 2x is the regression tripwire
  // with headroom for noisy shared CI runners.
  if (speedup < 2.0) {
    std::printf("perf_smoke: FAIL — blocked GEMM must beat the scalar seed "
                "by at least 2x in Release builds\n");
    ok = false;
  }

  // int8 must pay for itself: narrower panels + 16-wide micro-kernel should
  // beat the i16 path at the same geometry, single-threaded.
  const double i16_ms = measured[2].ms;   // direct_fixed_gemm
  const double i8_ms = measured[4].ms;    // im2col_gemm_i8
  std::printf("perf_smoke: int8 vs i16 — %.2fx\n", i16_ms / i8_ms);
  if (i8_ms >= i16_ms) {
    std::printf("perf_smoke: FAIL — int8 im2col+GEMM must beat the i16 path "
                "single-threaded\n");
    ok = false;
  }

  // The paper's premise on the host: F(4x4,3x3) does a quarter of the
  // multiplications, so with the plan packed once it must win on a 3x3
  // layer, by a margin that needs the transforms on the AVX2 stamp with
  // sparse coefficients: seven alternating runs on a shared 4-core x86-64
  // container read 1.78-2.57x with them and 1.11-2.16x (median 1.43x)
  // with the SSE2 dense-coefficient transforms.
  constexpr double kWinoFloor = 1.5;
  const double wino_ms = measured[1].ms;  // winograd_f43_gemm
  std::printf("perf_smoke: winograd F(4x4,3x3) vs im2col+GEMM — %.2fx "
              "(floor %.2fx)\n",
              blocked / wino_ms, kWinoFloor);
  if (blocked < kWinoFloor * wino_ms) {
    std::printf("perf_smoke: FAIL — Winograd F(4x4,3x3) must beat "
                "im2col+GEMM by %.2fx on a 3x3 layer single-threaded\n",
                kWinoFloor);
    ok = false;
  }

#ifdef HETACC_PERF_BASELINE
  const std::string baseline = read_file(HETACC_PERF_BASELINE);
  if (baseline.empty()) {
    std::printf("perf_smoke: FAIL — baseline %s missing or empty\n",
                HETACC_PERF_BASELINE);
    ok = false;
  } else {
    for (const Measurement& m : measured) {
      const double base = json_lookup(baseline, m.kernel);
      if (base <= 0.0) {
        std::printf("perf_smoke: FAIL — no baseline entry for %s\n", m.kernel);
        ok = false;
        continue;
      }
      const double ratio = m.ms / base;
      std::printf("perf_smoke:   %-22s %.2fx of committed baseline "
                  "(%.2f ms, limit 2x)\n",
                  m.kernel, ratio, base);
      if (ratio > 2.0) {
        std::printf("perf_smoke: FAIL — %s regressed past 2x of its "
                    "committed baseline\n",
                    m.kernel);
        ok = false;
      }
    }
  }
#else
  std::printf("perf_smoke: note — built without HETACC_PERF_BASELINE, "
              "absolute guard skipped\n");
#endif

  const double stream_ms = measured[5].ms;  // stream_conv1_pipeline
  std::printf("perf_smoke: streaming conv1 vs whole-tensor im2col+GEMM "
              "(%.2f ms) — %.2fx\n",
              conv1_im2col, stream_ms / conv1_im2col);
  if (stream_ms > 2.0 * conv1_im2col) {
    std::printf("perf_smoke: FAIL — the streaming conv1 pipeline must run "
                "within 2x of whole-tensor im2col+GEMM single-threaded\n");
    ok = false;
  }

  // The fixed datapath differs from float only by grid snapping on ingest
  // and writeback; with the inline rounding helper that costs ~1.1x here,
  // with a libm call per value it cost ~1.5x.
  const double fixed_ms = measured[6].ms;  // stream_fixed_pipeline
  std::printf("perf_smoke: 16-bit fixed vs float conv+pool pipeline "
              "(%.2f ms) — %.2fx\n",
              float_pipe_ms, fixed_ms / float_pipe_ms);
  if (fixed_ms > 1.25 * float_pipe_ms) {
    std::printf("perf_smoke: FAIL — the calibrated 16-bit pipeline must run "
                "within 1.25x of the float pipeline single-threaded\n");
    ok = false;
  }

  std::printf("perf_smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
