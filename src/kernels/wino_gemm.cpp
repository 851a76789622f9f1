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
// GCC/Clang generic vectors, legalized to whatever the build targets (two
// SSE registers on a baseline x86-64 build).
constexpr int kLanes = 8;
typedef float vlane __attribute__((vector_size(kLanes * sizeof(float))));

inline std::size_t lane_blocks(std::size_t lanes) {
  return (lanes + kLanes - 1) / kLanes;
}

/// The first `live` lanes of a vector from / to memory; full blocks take
/// the fixed-size path the compiler turns into plain vector moves.
inline void load_lanes(const float* src, int live, vlane& x) {
  if (live == kLanes) {
    std::memcpy(&x, src, sizeof(vlane));
  } else {
    x = vlane{};
    std::memcpy(&x, src, static_cast<std::size_t>(live) * sizeof(float));
  }
}

inline void store_lanes(float* dst, const vlane& x, int live) {
  if (live == kLanes) {
    std::memcpy(dst, &x, sizeof(vlane));
  } else {
    std::memcpy(dst, &x, static_cast<std::size_t>(live) * sizeof(float));
  }
}

/// Y (ra x cb) = A (ra x ca, scalar) * X (ca x cb), every X/Y entry a lane
/// vector. Zero coefficients of the sparse transform matrices are skipped.
inline void lanes_nn(const float* A, int ra, int ca, const vlane* X, int cb,
                     vlane* Y) {
  for (int r = 0; r < ra; ++r) {
    vlane* yr = Y + static_cast<std::size_t>(r) * cb;
    for (int c = 0; c < cb; ++c) yr[c] = vlane{};
    for (int k = 0; k < ca; ++k) {
      const float a = A[static_cast<std::size_t>(r) * ca + k];
      if (a == 0.0f) continue;
      const vlane av = vlane{} + a;
      const vlane* xk = X + static_cast<std::size_t>(k) * cb;
      for (int c = 0; c < cb; ++c) yr[c] += av * xk[c];
    }
  }
}

/// Y (ra x rb) = X (ra x ca) * A^T where A is (rb x ca) scalar, row-major.
inline void lanes_nt(const vlane* X, int ra, int ca, const float* A, int rb,
                     vlane* Y) {
  for (int r = 0; r < ra; ++r) {
    const vlane* xr = X + static_cast<std::size_t>(r) * ca;
    for (int c = 0; c < rb; ++c) {
      vlane acc{};
      for (int k = 0; k < ca; ++k) {
        const float a = A[static_cast<std::size_t>(c) * ca + k];
        if (a == 0.0f) continue;
        acc += xr[k] * (vlane{} + a);
      }
      Y[static_cast<std::size_t>(r) * rb + c] = acc;
    }
  }
}

/// Chunk size for the (channel x tile) transform grids: a few tiles per
/// cursor claim keeps per-channel locality without starving wide machines on
/// narrow strips.
inline std::size_t tile_grain(int tiles_w) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(tiles_w), 1, 8);
}

}  // namespace

void winograd_strip(const WinogradPlan& plan, const float* strip, int strip_w,
                    int tiles_w, float* const* out_rows, int rows_out,
                    int out_w, const float* bias, bool relu, int out_frac,
                    int threads) {
  const int n = plan.n, m = plan.m, T = tiles_w;
  const int in_c = plan.in_c, out_c = plan.out_c;
  check_tile_size(n);
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
    const int live = std::min(kLanes, in_c - c0);
    alignas(32) float d[kWinogradMaxN * kWinogradMaxN * kLanes] = {};
    vlane dv[kWinogradMaxN * kWinogradMaxN];
    vlane tmp[kWinogradMaxN * kWinogradMaxN];
    vlane vt[kWinogradMaxN * kWinogradMaxN];
    for (int tj = 0; tj < T; ++tj) {
      for (int l = 0; l < live; ++l) {
        const float* src =
            strip + static_cast<std::size_t>(c0 + l) * n * strip_w + tj * m;
        for (int u = 0; u < n; ++u) {
          const float* row = src + static_cast<std::size_t>(u) * strip_w;
          for (int x = 0; x < n; ++x) d[(u * n + x) * kLanes + l] = row[x];
        }
      }
      std::memcpy(dv, d, static_cast<std::size_t>(n) * n * sizeof(vlane));
      lanes_nn(plan.bt.data(), n, n, dv, n, tmp);
      lanes_nt(tmp, n, n, plan.bt.data(), n, vt);
      float* vrow = v + static_cast<std::size_t>(tj) * in_c + c0;
      for (int ab = 0; ab < n * n; ++ab) {
        store_lanes(vrow + static_cast<std::size_t>(ab) * vplane, vt[ab],
                    live);
      }
    }
  });

  // Transform-domain GEMMs against the pre-packed filter panels.
  parallel_for(static_cast<std::size_t>(n) * n, threads, [&](std::size_t ab) {
    gemm_f32(T, v + ab * vplane, in_c, plan.ut[ab], mm + ab * mplane, out_c,
             /*bias=*/nullptr, /*relu=*/false, /*threads=*/1);
  });

  // Inverse transform + scatter. A task owns eight output channels (one
  // per lane) and walks the tiles left to right: M^T[ab]'s rows are
  // (tile, out_c), so every plane load is one contiguous vector, and each
  // output row is filled left to right while its cache lines are hot.
  parallel_for(lane_blocks(out_c), 1, threads, [&](std::size_t blk) {
    const int oc0 = static_cast<int>(blk) * kLanes;
    const int live = std::min(kLanes, out_c - oc0);
    vlane mv[kWinogradMaxN * kWinogradMaxN];
    vlane p[kWinogradMaxN * kWinogradMaxN];
    vlane y[kWinogradMaxN * kWinogradMaxN];
    alignas(32) float yf[kWinogradMaxN * kWinogradMaxN * kLanes];
    // ReLU as a branchless clamp (a branch on the sign of each output
    // mispredicts on real data); std::max keeps a NaN either way.
    const float floor =
        relu ? 0.0f : -std::numeric_limits<float>::infinity();
    for (int tj = 0; tj < T; ++tj) {
      const float* mrow = mm + static_cast<std::size_t>(tj) * out_c + oc0;
      for (int ab = 0; ab < n * n; ++ab) {
        load_lanes(mrow + static_cast<std::size_t>(ab) * mplane, live,
                   mv[ab]);
      }
      lanes_nn(plan.at.data(), m, n, mv, n, p);
      lanes_nt(p, m, n, plan.at.data(), m, y);
      std::memcpy(yf, y, static_cast<std::size_t>(m) * m * sizeof(vlane));
      const int col0 = tj * m;
      const int cols = std::min(m, out_w - col0);
      for (int l = 0; l < live; ++l) {
        const int oc = oc0 + l;
        const float b = bias ? bias[oc] : 0.0f;
        for (int a = 0; a < rows_out; ++a) {
          float* orow =
              out_rows[static_cast<std::size_t>(a) * out_c + oc] + col0;
          const float* ya = yf + static_cast<std::size_t>(a) * m * kLanes + l;
          for (int x = 0; x < cols; ++x) {
            orow[x] = std::max(ya[x * kLanes] + b, floor);
          }
        }
      }
    }
    // 16-bit mode: the task's output rows are complete, so each is snapped
    // onto the Q(out_frac) grid in one vectorized pass while still hot.
    if (out_frac >= 0) {
      for (int l = 0; l < live; ++l) {
        for (int a = 0; a < rows_out; ++a) {
          float* orow = out_rows[static_cast<std::size_t>(a) * out_c + oc0 + l];
          fixed::quantize_row(orow, orow, static_cast<std::size_t>(out_w),
                              out_frac);
        }
      }
    }
  });
}

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
