#include "kernels/wino_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "fixed/fixed16.h"
#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"

// gather_tile writes every d[u*n + v] for u, v < n — exactly the prefix the
// transforms read — but GCC cannot prove coverage with a runtime n and warns
// -Wmaybe-uninitialized on the kWinogradMaxN-sized stack arrays.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace hetacc::kernels {

namespace {

// The double helpers of the fixed datapath mirror algo::Matrix::operator* —
// left-element zero skip, k-ascending accumulation, identical expression
// shape — so the seed's double transform results are reproduced bit-for-bit
// (the skip can only flip signed zeros, which the downstream quantization
// erases).

/// C (ra x cb) = A (ra x ca) * B (ca x cb), all row-major.
void matmul_nn(const double* A, int ra, int ca, const double* B, int cb,
               double* C) {
  std::fill(C, C + static_cast<std::size_t>(ra) * cb, 0.0);
  for (int r = 0; r < ra; ++r) {
    for (int k = 0; k < ca; ++k) {
      const double a = A[static_cast<std::size_t>(r) * ca + k];
      if (a == 0.0) continue;
      for (int c = 0; c < cb; ++c) {
        C[static_cast<std::size_t>(r) * cb + c] +=
            a * B[static_cast<std::size_t>(k) * cb + c];
      }
    }
  }
}

/// C (ra x rb) = A (ra x ca) * B^T where B is stored (rb x ca) row-major.
void matmul_nt(const double* A, int ra, int ca, const double* B, int rb,
               double* C) {
  std::fill(C, C + static_cast<std::size_t>(ra) * rb, 0.0);
  for (int r = 0; r < ra; ++r) {
    for (int k = 0; k < ca; ++k) {
      const double a = A[static_cast<std::size_t>(r) * ca + k];
      if (a == 0.0) continue;
      for (int c = 0; c < rb; ++c) {
        C[static_cast<std::size_t>(r) * rb + c] +=
            a * B[static_cast<std::size_t>(c) * ca + k];
      }
    }
  }
}

void check_tile_size(int n) {
  if (n < 1 || n > kWinogradMaxN) {
    throw std::logic_error("winograd kernel: unsupported tile size n=" +
                           std::to_string(n));
  }
}

/// Gather one tile's n x n window from the pre-padded strip.
inline void gather_tile(const float* cplane, int strip_w, int tj, int m, int n,
                        double* d) {
  for (int u = 0; u < n; ++u) {
    const float* src = cplane + static_cast<std::size_t>(u) * strip_w + tj * m;
    for (int v = 0; v < n; ++v) d[u * n + v] = src[v];
  }
}

// Lane vectors of the f32 transforms: eight floats, one per channel.
// GCC/Clang generic vectors, legalized to whatever the stamp targets (two
// SSE registers on the baseline, one ymm register on the AVX2 stamp).
constexpr int kLanes = 8;
typedef float vlane __attribute__((vector_size(kLanes * sizeof(float))));

inline std::size_t lane_blocks(std::size_t lanes) {
  return (lanes + kLanes - 1) / kLanes;
}

/// A transform matrix as per-row lists of its nonzero coefficients, k
/// ascending: the order every transformed element accumulates in.
struct SparseRows {
  int count[kWinogradMaxN];
  int idx[kWinogradMaxN][kWinogradMaxN];
  float coef[kWinogradMaxN][kWinogradMaxN];
};

/// Sparse rows of the row-major (rows x cols) matrix A.
SparseRows sparse_rows(const std::vector<float>& A, int rows, int cols) {
  SparseRows s{};
  for (int r = 0; r < rows; ++r) {
    for (int k = 0; k < cols; ++k) {
      const float a = A[static_cast<std::size_t>(r) * cols + k];
      if (a == 0.0f) continue;
      s.idx[r][s.count[r]] = k;
      s.coef[r][s.count[r]++] = a;
    }
  }
  return s;
}

// The lane-vector helpers below serve both transform stamps. always_inline
// folds them into each stamp under the stamp's own target: as one shared
// out-of-line copy (what -O0 emits for plain inline) they would be compiled
// for the baseline inside the AVX2 stamp (DESIGN §10).

/// The first `live` lanes of a vector from / to memory; full blocks take
/// the fixed-size path the compiler turns into plain vector moves.
__attribute__((always_inline)) inline void load_lanes(const float* src,
                                                      int live, vlane& x) {
  if (live == kLanes) {
    std::memcpy(&x, src, sizeof(vlane));
  } else {
    x = vlane{};
    std::memcpy(&x, src, static_cast<std::size_t>(live) * sizeof(float));
  }
}

__attribute__((always_inline)) inline void store_lanes(float* dst,
                                                       const vlane& x,
                                                       int live) {
  if (live == kLanes) {
    std::memcpy(dst, &x, sizeof(vlane));
  } else {
    std::memcpy(dst, &x, static_cast<std::size_t>(live) * sizeof(float));
  }
}

// The two products below run U independent accumulation chains at a time
// (U = 2 on the AVX2 stamp; 1 on the baseline, where GCC keeps each 8-lane
// vector wider than the target's registers on the stack and a second chain
// only adds spills). Every element still gets its own chain, acc = +0 then
// acc += a * x over its row's nonzero coefficients, k ascending, so U
// changes the interleaving, never the bytes.

/// Y (ra x cb) = A (ra x ca, sparse rows) * X (ca x cb), every X/Y entry a
/// lane vector.
template <int U>
__attribute__((always_inline)) inline void sparse_nn(const SparseRows& A,
                                                     int ra, const vlane* X,
                                                     int cb, vlane* Y) {
  for (int r = 0; r < ra; ++r) {
    const int cnt = A.count[r];
    const int* idx = A.idx[r];
    const float* coef = A.coef[r];
    int c = 0;
    if constexpr (U == 2) {
      for (; c + 2 <= cb; c += 2) {
        vlane acc0{}, acc1{};
        for (int j = 0; j < cnt; ++j) {
          const vlane* x = X + idx[j] * cb + c;
          acc0 += coef[j] * x[0];
          acc1 += coef[j] * x[1];
        }
        Y[r * cb + c] = acc0;
        Y[r * cb + c + 1] = acc1;
      }
    }
    for (; c < cb; ++c) {
      vlane acc{};
      for (int j = 0; j < cnt; ++j) acc += coef[j] * X[idx[j] * cb + c];
      Y[r * cb + c] = acc;
    }
  }
}

/// Y (ra x rb) = X (ra x ca) * A^T where A is (rb x ca, sparse rows).
template <int U>
__attribute__((always_inline)) inline void sparse_nt(const vlane* X, int ra,
                                                     int ca,
                                                     const SparseRows& A,
                                                     int rb, vlane* Y) {
  int r = 0;
  if constexpr (U == 2) {
    for (; r + 2 <= ra; r += 2) {
      const vlane* x0 = X + r * ca;
      const vlane* x1 = x0 + ca;
      for (int c = 0; c < rb; ++c) {
        const int cnt = A.count[c];
        const int* idx = A.idx[c];
        const float* coef = A.coef[c];
        vlane acc0{}, acc1{};
        for (int j = 0; j < cnt; ++j) {
          acc0 += x0[idx[j]] * coef[j];
          acc1 += x1[idx[j]] * coef[j];
        }
        Y[r * rb + c] = acc0;
        Y[(r + 1) * rb + c] = acc1;
      }
    }
  }
  for (; r < ra; ++r) {
    const vlane* xr = X + r * ca;
    for (int c = 0; c < rb; ++c) {
      const int cnt = A.count[c];
      const int* idx = A.idx[c];
      const float* coef = A.coef[c];
      vlane acc{};
      for (int j = 0; j < cnt; ++j) acc += xr[idx[j]] * coef[j];
      Y[r * rb + c] = acc;
    }
  }
}

// Baseline stamp: generic vectors legalized to the build's default ISA.
#define HETACC_WINO_TARGET
#define HETACC_WINO_NAME(n) n##_base
#define HETACC_WINO_CHAINS 1
#include "kernels/wino_transform.inc"
#undef HETACC_WINO_TARGET
#undef HETACC_WINO_NAME
#undef HETACC_WINO_CHAINS

using ForwardBlockFn = decltype(&forward_block_base);
using InverseBlockFn = decltype(&inverse_block_base);

#if defined(__x86_64__)
// AVX2 stamp, chosen at runtime so the binary stays runnable on baseline
// machines. No fma in the target: see wino_transform.inc.
#define HETACC_WINO_TARGET __attribute__((target("avx2")))
#define HETACC_WINO_NAME(n) n##_avx2
#define HETACC_WINO_CHAINS 2
#include "kernels/wino_transform.inc"
#undef HETACC_WINO_TARGET
#undef HETACC_WINO_NAME
#undef HETACC_WINO_CHAINS

bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}
#endif

/// Chunk size for the (channel x tile) transform grids: a few tiles per
/// cursor claim keeps per-channel locality without starving wide machines on
/// narrow strips.
inline std::size_t tile_grain(int tiles_w) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(tiles_w), 1, 8);
}

/// winograd_strip on the given transform stamp.
void strip_impl(const WinogradPlan& plan, const float* strip, int strip_w,
                int tiles_w, float* const* out_rows, int rows_out, int out_w,
                const float* bias, bool relu, int out_frac, int threads,
                ForwardBlockFn forward, InverseBlockFn inverse) {
  const int n = plan.n, m = plan.m, T = tiles_w;
  const int in_c = plan.in_c, out_c = plan.out_c;
  check_tile_size(n);
  const SparseRows bt = sparse_rows(plan.bt, n, n);
  const SparseRows at = sparse_rows(plan.at, m, n);
  const std::size_t vplane = static_cast<std::size_t>(T) * in_c;
  const std::size_t mplane = static_cast<std::size_t>(T) * out_c;
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  float* v = arena.alloc<float>(static_cast<std::size_t>(n) * n * vplane);
  float* mm = arena.alloc<float>(static_cast<std::size_t>(n) * n * mplane);

  // Forward transform. A task owns eight input channels (one per lane) and
  // walks the strip's tiles left to right, so its gathers stay on the same
  // strip rows; V^T[ab]'s rows are (tile, in_c), so every plane store is
  // one contiguous vector.
  parallel_for(lane_blocks(in_c), 1, threads, [&](std::size_t blk) {
    const int c0 = static_cast<int>(blk) * kLanes;
    forward(bt, n, m, strip, strip_w, T, in_c, c0,
            std::min(kLanes, in_c - c0), v, vplane);
  });

  // Transform-domain GEMMs against the pre-packed filter panels.
  parallel_for(static_cast<std::size_t>(n) * n, threads, [&](std::size_t ab) {
    gemm_f32(T, v + ab * vplane, in_c, plan.ut[ab], mm + ab * mplane, out_c,
             /*bias=*/nullptr, /*relu=*/false, /*threads=*/1);
  });

  // Inverse transform + scatter. A task owns eight output channels (one
  // per lane) and walks the tiles left to right: M^T[ab]'s rows are
  // (tile, out_c), so every plane load is one contiguous vector, and each
  // output row is filled left to right while its cache lines are hot. ReLU
  // is a branchless clamp (a branch on the sign of each output mispredicts
  // on real data).
  const float floor = relu ? 0.0f : -std::numeric_limits<float>::infinity();
  parallel_for(lane_blocks(out_c), 1, threads, [&](std::size_t blk) {
    const int oc0 = static_cast<int>(blk) * kLanes;
    inverse(at, n, m, mm, T, out_c, oc0, std::min(kLanes, out_c - oc0),
            mplane, out_rows, rows_out, out_w, bias, floor, out_frac);
  });
}

}  // namespace

void winograd_strip(const WinogradPlan& plan, const float* strip, int strip_w,
                    int tiles_w, float* const* out_rows, int rows_out,
                    int out_w, const float* bias, bool relu, int out_frac,
                    int threads) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    strip_impl(plan, strip, strip_w, tiles_w, out_rows, rows_out, out_w, bias,
               relu, out_frac, threads, &forward_block_avx2,
               &inverse_block_avx2);
    return;
  }
#endif
  fallback::winograd_strip(plan, strip, strip_w, tiles_w, out_rows, rows_out,
                           out_w, bias, relu, out_frac, threads);
}

namespace fallback {

void winograd_strip(const WinogradPlan& plan, const float* strip, int strip_w,
                    int tiles_w, float* const* out_rows, int rows_out,
                    int out_w, const float* bias, bool relu, int out_frac,
                    int threads) {
  strip_impl(plan, strip, strip_w, tiles_w, out_rows, rows_out, out_w, bias,
             relu, out_frac, threads, &forward_block_base, &inverse_block_base);
}

}  // namespace fallback

void winograd_strip_fixed(const WinogradPlanFixed& plan, const float* strip,
                          int strip_w, int tiles_w, float* const* out_rows,
                          int rows_out, int out_w, const float* bias,
                          bool relu, int v_frac, int out_frac, int threads) {
  const int n = plan.n, m = plan.m, T = tiles_w;
  check_tile_size(n);
  const std::size_t vplane = static_cast<std::size_t>(plan.in_c) * T;
  const std::size_t mplane = static_cast<std::size_t>(plan.out_c) * T;
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  std::int16_t* vq =
      arena.alloc<std::int16_t>(static_cast<std::size_t>(n) * n * vplane);
  std::int64_t* mi =
      arena.alloc<std::int64_t>(static_cast<std::size_t>(n) * n * mplane);

  parallel_for(static_cast<std::size_t>(plan.in_c) * T, tile_grain(T), threads,
               [&](std::size_t g) {
                 const std::size_t c = g / T;
                 const int tj = static_cast<int>(g % T);
                 const float* cplane =
                     strip + c * static_cast<std::size_t>(n) * strip_w;
                 double d[kWinogradMaxN * kWinogradMaxN];
                 double tmp[kWinogradMaxN * kWinogradMaxN];
                 double vt[kWinogradMaxN * kWinogradMaxN];
                 gather_tile(cplane, strip_w, tj, m, n, d);
                 matmul_nn(plan.bt.data(), n, n, d, n, tmp);
                 matmul_nt(tmp, n, n, plan.bt.data(), n, vt);
                 for (int ab = 0; ab < n * n; ++ab) {
                   // 16-bit multiplier inputs, exactly as the seed quantized
                   // per tile.
                   vq[static_cast<std::size_t>(ab) * vplane + c * T + tj] =
                       fixed::Fixed16::quantize(static_cast<float>(vt[ab]),
                                                v_frac);
                 }
               });

  parallel_for(static_cast<std::size_t>(n) * n, threads, [&](std::size_t ab) {
    gemm_i16(plan.out_c, T, plan.in_c, plan.plane(static_cast<int>(ab)),
             plan.in_c, vq + ab * vplane, T, mi + ab * mplane, T,
             /*threads=*/1);
  });

  const double scale = std::ldexp(1.0, -(plan.u_frac + v_frac));
  parallel_for(
      static_cast<std::size_t>(plan.out_c) * T, tile_grain(T), threads,
      [&](std::size_t g) {
        const std::size_t oc = g / T;
        const int tj = static_cast<int>(g % T);
        double macc[kWinogradMaxN * kWinogradMaxN];
        double p[kWinogradMaxN * kWinogradMaxN];
        double y[kWinogradMaxN * kWinogradMaxN];
        const float bia = bias ? bias[oc] : 0.0f;
        for (int ab = 0; ab < n * n; ++ab) {
          macc[ab] = static_cast<double>(
                         mi[static_cast<std::size_t>(ab) * mplane + oc * T +
                            tj]) *
                     scale;
        }
        matmul_nn(plan.at.data(), m, n, macc, n, p);
        matmul_nt(p, m, n, plan.at.data(), m, y);
        for (int a = 0; a < rows_out; ++a) {
          float* orow = out_rows[static_cast<std::size_t>(a) * plan.out_c + oc];
          for (int b = 0; b < m; ++b) {
            const int col = tj * m + b;
            if (col >= out_w) break;
            float val = static_cast<float>(y[a * m + b]) + bia;
            if (relu) val = std::max(val, 0.0f);
            orow[col] = fixed::quantize_to_float(val, out_frac);
          }
        }
      });
}

namespace {

/// Copies the padded window of tile row `ti` into `strip`
/// ([C][n][strip_w], zero outside the real image).
void fill_strip(const float* in, int C, int H, int W, int pad, int ti, int m,
                int n, int strip_w, float* strip, int threads) {
  parallel_for(static_cast<std::size_t>(C), threads, [&](std::size_t c) {
    float* cdst = strip + c * static_cast<std::size_t>(n) * strip_w;
    const float* csrc = in + c * static_cast<std::size_t>(H) * W;
    for (int u = 0; u < n; ++u) {
      float* dst = cdst + static_cast<std::size_t>(u) * strip_w;
      const int h = ti * m + u - pad;
      if (h < 0 || h >= H) {
        std::fill(dst, dst + strip_w, 0.0f);
        continue;
      }
      const int x0 = pad;  // strip col x maps to input col x - pad
      const int x1 = std::min(strip_w, W + pad);
      if (x0 > 0) std::fill(dst, dst + std::min(x0, strip_w), 0.0f);
      if (x1 > x0) {
        std::memcpy(dst + x0, csrc + static_cast<std::size_t>(h) * W,
                    static_cast<std::size_t>(x1 - x0) * sizeof(float));
      }
      if (x1 < strip_w) std::fill(dst + std::max(x1, 0), dst + strip_w, 0.0f);
    }
  });
}

}  // namespace

void winograd_conv_f32(const WinogradPlan& plan, const float* in, int H, int W,
                       int pad, const float* bias, bool relu, float* out,
                       int out_h, int out_w, int threads) {
  const int m = plan.m, n = plan.n;
  const int tiles_h = (out_h + m - 1) / m;
  const int tiles_w = (out_w + m - 1) / m;
  const int strip_w = (tiles_w - 1) * m + n;
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  float* strip =
      arena.alloc<float>(static_cast<std::size_t>(plan.in_c) * n * strip_w);
  float** out_rows =
      arena.alloc<float*>(static_cast<std::size_t>(m) * plan.out_c);
  for (int ti = 0; ti < tiles_h; ++ti) {
    fill_strip(in, plan.in_c, H, W, pad, ti, m, n, strip_w, strip, threads);
    const int rows_out = std::min(m, out_h - ti * m);
    for (int a = 0; a < rows_out; ++a) {
      for (int oc = 0; oc < plan.out_c; ++oc) {
        out_rows[static_cast<std::size_t>(a) * plan.out_c + oc] =
            out + (static_cast<std::size_t>(oc) * out_h + ti * m + a) * out_w;
      }
    }
    winograd_strip(plan, strip, strip_w, tiles_w, out_rows, rows_out, out_w,
                   bias, relu, /*out_frac=*/-1, threads);
  }
}

void winograd_conv_i16(const WinogradPlanFixed& plan, const float* in, int H,
                       int W, int pad, const float* bias, bool relu,
                       int data_frac, int v_frac, int out_frac, float* out,
                       int out_h, int out_w, int threads) {
  const int m = plan.m, n = plan.n;
  const int tiles_h = (out_h + m - 1) / m;
  const int tiles_w = (out_w + m - 1) / m;
  const int strip_w = (tiles_w - 1) * m + n;
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);

  // Samples enter the datapath already quantized; hoisting the per-tile
  // quantization of the seed is value-identical (zero padding quantizes to
  // zero and real samples quantize the same wherever they are read).
  float* qin = arena.alloc<float>(static_cast<std::size_t>(plan.in_c) * H * W);
  parallel_for(static_cast<std::size_t>(plan.in_c), threads,
               [&](std::size_t c) {
                 const std::size_t base = c * static_cast<std::size_t>(H) * W;
                 fixed::quantize_row(in + base, qin + base,
                                     static_cast<std::size_t>(H) * W,
                                     data_frac);
               });

  float* strip =
      arena.alloc<float>(static_cast<std::size_t>(plan.in_c) * n * strip_w);
  float** out_rows =
      arena.alloc<float*>(static_cast<std::size_t>(m) * plan.out_c);
  for (int ti = 0; ti < tiles_h; ++ti) {
    fill_strip(qin, plan.in_c, H, W, pad, ti, m, n, strip_w, strip, threads);
    const int rows_out = std::min(m, out_h - ti * m);
    for (int a = 0; a < rows_out; ++a) {
      for (int oc = 0; oc < plan.out_c; ++oc) {
        out_rows[static_cast<std::size_t>(a) * plan.out_c + oc] =
            out + (static_cast<std::size_t>(oc) * out_h + ti * m + a) * out_w;
      }
    }
    winograd_strip_fixed(plan, strip, strip_w, tiles_w, out_rows, rows_out,
                         out_w, bias, relu, v_frac, out_frac, threads);
  }
}

}  // namespace hetacc::kernels
