#pragma once
// Winograd F(m x m, r x r) restructured as batched transform-domain GEMMs.
//
// Instead of the seed's per-tile elementwise channel loop, all tiles of a
// tile-row strip are gathered and input-transformed into n^2 planes
// V^T[ab] of shape (tiles x in_c). One GEMM per tile position ab then
// computes M^T[ab] (tiles x out_c) = V^T[ab] * U^T[ab], and the inverse
// transform scatters each (tile, oc) back to output rows. Tiles sit on the
// GEMM's M side and output channels on its N side, so the micro-kernel's
// 16-wide register block is filled by out_c even when a strip holds only a
// handful of tiles. The filters U^T[ab] (in_c x out_c) are transformed and
// packed into pre-packed right-hand-side panels exactly once per layer
// (WinogradPlan, built by algo::pack_winograd_plan).
//
// The float datapath is f32 end to end: f32 transforms, vectorized with one
// channel per lane, and the f32 GEMM. The double per-tile seed
// (algo::winograd_conv_pretransformed_scalar) is its test oracle. The
// transforms walk per-row lists of the nonzero B^T / A^T coefficients and
// run on one of two stamps of the same source, baseline or AVX2 (without
// FMA, so both round identically), picked once per process; the bytes do
// not depend on which one runs.
//
// Determinism: parallelism is across blocks of eight input channels (gather
// + forward transform), tile positions (GEMM batch), and blocks of eight
// output channels (inverse transform + scatter) — independent outputs only.
// Vector arithmetic is lane-wise, so an element's value does not depend on
// which block or thread computed it, and each output element's accumulation
// chain depends only on (in_c, KC).
//
// Scratch (transform planes, strip windows, quantized copies) comes from the
// calling thread's ScratchArena, so repeated strips/images run with zero
// steady-state heap allocations.
//
// The fixed-point strip reproduces algo::winograd_conv_fixed bit-for-bit:
// int16 x int16 -> int64 transform-domain accumulation commutes exactly, and
// the double pre- and post-transforms mirror the accumulation order of
// algo::Matrix::operator*.

#include <cstdint>
#include <vector>

#include "kernels/gemm.h"

namespace hetacc::kernels {

/// Largest supported transform size n = m + r - 1 (per-tile and per-lane-
/// block temporaries are stack-allocated in the strip kernels).
inline constexpr int kWinogradMaxN = 16;

/// A float Winograd layer packed for batched transform-domain GEMM: the
/// transform matrices as flat f32 plus one pre-packed GEMM right-hand side
/// per tile position ab holding U^T[ab] (in_c x out_c). Built once per layer
/// (see algo::pack_winograd_plan) and shared across images, engine instances
/// and fleet replicas.
struct WinogradPlan {
  int m = 0, r = 0, n = 0;
  int out_c = 0, in_c = 0;
  std::vector<float> bt;         ///< n x n, row-major
  std::vector<float> at;         ///< m x n, row-major
  std::vector<PackedRhsF32> ut;  ///< [n*n] packed U^T[ab]

  /// Resident bytes: transform matrices plus every packed panel.
  [[nodiscard]] long long footprint_bytes() const {
    long long total =
        static_cast<long long>((bt.size() + at.size()) * sizeof(float));
    for (const PackedRhsF32& p : ut) total += p.footprint_bytes();
    return total;
  }
};

/// Fixed-point variant: filters quantized to Q(u_frac) int16 once (the seed
/// re-quantized the same values per tile; quantization is deterministic, so
/// hoisting it is value-identical).
struct WinogradPlanFixed {
  int m = 0, r = 0, n = 0;
  int out_c = 0, in_c = 0;
  std::vector<double> bt;      ///< n x n, row-major
  std::vector<double> at;      ///< m x n, row-major
  std::vector<std::int16_t> u; ///< [n*n][out_c][in_c], Q(u_frac)
  int u_frac = 0;

  [[nodiscard]] const std::int16_t* plane(int ab) const {
    return u.data() + static_cast<std::size_t>(ab) * out_c * in_c;
  }
};

/// Computes one tile-row strip (all tile columns of one tile row).
///
/// `strip` is the pre-padded input window, [in_c][n][strip_w] row-major with
/// strip_w >= (tiles_w - 1) * m + n; anything outside the real (padded) image
/// must already be zero-filled. Output goes through `out_rows`: one pointer
/// per (row, output channel) — out_rows[row * out_c + oc] — each addressing
/// at least out_w floats; rows_out (<= m) bottom-clips the strip, out_w
/// right-clips the tiles. `out_frac < 0` leaves outputs in float; otherwise
/// each output is quantized to Q(out_frac) (streaming-engine fixed mode).
/// Transform planes live in the calling thread's ScratchArena for the
/// duration of the call.
void winograd_strip(const WinogradPlan& plan, const float* strip, int strip_w,
                    int tiles_w, float* const* out_rows, int rows_out,
                    int out_w, const float* bias, bool relu, int out_frac,
                    int threads);

/// winograd_strip with the baseline transform stamp forced, whatever the
/// CPU supports (the GEMMs still dispatch as usual). Both stamps run the
/// same operation chain per element, so the differential test requires
/// the two to be byte-identical.
namespace fallback {
void winograd_strip(const WinogradPlan& plan, const float* strip, int strip_w,
                    int tiles_w, float* const* out_rows, int rows_out,
                    int out_w, const float* bias, bool relu, int out_frac,
                    int threads);
}  // namespace fallback

/// Fixed-datapath strip: `strip` must hold Q(data_frac)-quantized samples,
/// V is quantized to Q(v_frac) int16 before the transform-domain multiply,
/// accumulation is exact int64, outputs re-quantized to Q(out_frac). Bit
/// -exact with the seed per-tile implementation for any thread count.
void winograd_strip_fixed(const WinogradPlanFixed& plan, const float* strip,
                          int strip_w, int tiles_w, float* const* out_rows,
                          int rows_out, int out_w, const float* bias,
                          bool relu, int v_frac, int out_frac, int threads);

/// Whole-tensor float Winograd conv over a CHW image (stride 1). `out` is
/// (out_c, out_h, out_w) CHW with out_h = H + 2*pad - r + 1.
void winograd_conv_f32(const WinogradPlan& plan, const float* in, int H, int W,
                       int pad, const float* bias, bool relu, float* out,
                       int out_h, int out_w, int threads);

/// Whole-tensor fixed Winograd conv: input quantized to Q(data_frac) once up
/// front (value-identical to the seed's per-tile quantization).
void winograd_conv_i16(const WinogradPlanFixed& plan, const float* in, int H,
                       int W, int pad, const float* bias, bool relu,
                       int data_frac, int v_frac, int out_frac, float* out,
                       int out_h, int out_w, int threads);

}  // namespace hetacc::kernels
