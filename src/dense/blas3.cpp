#include "dense/blas3.hpp"

#include "par/config.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace tsbo::dense {

namespace {
// Row-block height: a 256 x ncols tile of the tall operand stays in L1/L2
// while all columns of the small operand are applied to it.  Divides
// par::kReduceChunk, so reduction chunks are whole numbers of tiles.
constexpr index_t kRowBlock = 256;
static_assert(par::kReduceChunk % static_cast<std::size_t>(kRowBlock) == 0);

// Small-operand (panel-width) tile: gemm_nn's inner dimension and
// gemm_tn's output-row dimension are the flat panel width, which the
// block (rhs=k) solver grows to s*k and the two-stage flush to bs*k —
// wide enough that streaming every small-operand column per C tile
// spills L2.  Tiling at 64 columns keeps a 256 x 64 operand tile
// (128 KiB) hot across the other operand's sweep.  A pure cache
// blocking: no output entry's accumulation order depends on it.
constexpr index_t kColBlock = 64;

// Below this many m * p * n multiply-adds, gemm_tn's chunked reduction
// runs inline: pool dispatch and the per-chunk partial buffer dominate
// tall-skinny Gram shapes (1e5 x 10 is 1e7; 1e5 x 20 at 4e7 still
// profits from threads).
constexpr std::size_t kGemmTnSerialWork = 30'000'000;

constexpr index_t kW = static_cast<index_t>(simd::kLanes);

// Register tiles, sized per ISA to its vector register file.  Each
// kernel holds a small block of outputs in registers while its operands
// stream past once per block:
//   gemm_tn  kTnRows x kTnCols entries of A^T B, two accumulators each;
//   gemm_nn  kNnCols columns x kNnVecs vectors of rows of C;
//   trsm     kTrsmVecs vectors of rows of one column of B.
// A tile only regroups independent outputs: every entry keeps exactly
// the FMA chain of the one-entry-at-a-time loop (spelled out at each
// kernel), so the bits never depend on the tile shape, the ISA's tile
// choice or the thread count.
#if defined(TSBO_SIMD_AVX512) || defined(TSBO_SIMD_NEON)
// 32 registers.  gemm_tn: 24 accumulators + 3 A + 1 B operand; gemm_nn:
// 24 accumulators + 4 A + 1 coefficient, and one column group covers
// the s = 5 stage-1 update.
constexpr int kTnRows = 3, kTnCols = 4;
constexpr int kNnCols = 6, kNnVecs = 4;
constexpr int kTrsmVecs = 4;
#elif defined(TSBO_SIMD_AVX2)
// 16 registers.  gemm_tn: 12 accumulators + 2 A + 1 B operand; gemm_nn:
// 8 accumulators + 2 A + 1 coefficient.
constexpr int kTnRows = 2, kTnCols = 3;
constexpr int kNnCols = 4, kNnVecs = 2;
constexpr int kTrsmVecs = 4;
#else
// Scalar fallback: a Vec is four doubles the compiler keeps in general
// or SSE registers, so the tiles stay small.
constexpr int kTnRows = 2, kTnCols = 2;
constexpr int kNnCols = 2, kNnVecs = 1;
constexpr int kTrsmVecs = 2;
#endif

// gemm_tn's cache block over A's columns, a whole number of tile rows.
constexpr index_t kTnColBlock = kColBlock / kTnRows * kTnRows;

// Tile positions (multiples of kRowBlock) and the vector/tail split
// within a tile depend only on the problem size, never on the thread
// partition, so mixing fused vector lanes with scalar tails stays
// bit-stable across thread counts.

/// Shared GEMM prologue: C := beta * C.  beta == 0 overwrites (clearing
/// NaN/Inf) rather than multiplying.  Threaded over rows for tall C.
void scale_columns(double beta, MatrixView c) {
  if (beta == 1.0 || c.rows == 0 || c.cols == 0) return;
  const simd::Vec vb = simd::set1(beta);
  par::parallel_for_grained(
      static_cast<std::size_t>(c.rows), [&](std::size_t b, std::size_t e) {
        const auto nb = static_cast<index_t>(e - b);
        for (index_t j = 0; j < c.cols; ++j) {
          double* cj = c.col(j) + static_cast<index_t>(b);
          if (beta == 0.0) {
            std::fill_n(cj, nb, 0.0);
          } else {
            index_t i = 0;
            for (; i + kW <= nb; i += kW) {
              simd::store(cj + i, simd::mul(vb, simd::load(cj + i)));
            }
            for (; i < nb; ++i) cj[i] *= beta;
          }
        }
      });
}

/// cj[0, nb) += b0 * a0[0, nb) + b1 * a1[0, nb), fused per element.
inline void fused_axpy2(double b0, const double* a0, double b1,
                        const double* a1, double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  const simd::Vec v1 = simd::set1(b1);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::Vec acc = simd::load(cj + i);
    acc = simd::mul_add(v0, simd::load(a0 + i), acc);
    acc = simd::mul_add(v1, simd::load(a1 + i), acc);
    simd::store(cj + i, acc);
  }
  for (; i < nb; ++i) {
    cj[i] = simd::mul_add(b1, a1[i], simd::mul_add(b0, a0[i], cj[i]));
  }
}

/// cj[0, nb) += b0 * a0[0, nb), fused per element.
inline void fused_axpy1(double b0, const double* a0, double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::store(cj + i,
                simd::mul_add(v0, simd::load(a0 + i), simd::load(cj + i)));
  }
  for (; i < nb; ++i) cj[i] = simd::mul_add(b0, a0[i], cj[i]);
}

inline double dot1(const double* a0, const double* bj, index_t nb) {
  simd::Vec v0a = simd::zero(), v0b = simd::zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    v0a = simd::mul_add(simd::load(a0 + r), simd::load(bj + r), v0a);
    v0b = simd::mul_add(simd::load(a0 + r + kW), simd::load(bj + r + kW), v0b);
  }
  for (; r + kW <= nb; r += kW) {
    v0a = simd::mul_add(simd::load(a0 + r), simd::load(bj + r), v0a);
  }
  double s = simd::reduce_add(simd::add(v0a, v0b));
  for (; r < nb; ++r) s += a0[r] * bj[r];
  return s;
}

// ---- gemm_tn register tile -------------------------------------------

/// part[jj * ldp + ii] += a[ii][r0, r0+nb) . b[jj][r0, r0+nb) for the
/// MR x NR entries of one tile.  Per-entry chain: two vector
/// accumulators over the alternating kW halves of each 2*kW step, a
/// trailing single kW block into the first, then
/// reduce_add(add(first, second)) and the scalar tail in ascending row
/// order.  The same products in the same order for (i, j) and (j, i) of
/// A^T A (a * b == b * a exactly), so a self-Gram is bitwise symmetric.
template <int MR, int NR>
void tn_tile(const double* const* a, const double* const* b, index_t r0,
             index_t nb, double* part, index_t ldp) {
  simd::Vec lo[MR][NR], hi[MR][NR];
  for (int ii = 0; ii < MR; ++ii) {
    for (int jj = 0; jj < NR; ++jj) lo[ii][jj] = hi[ii][jj] = simd::zero();
  }
  const index_t rend = r0 + nb;
  index_t r = r0;
  simd::Vec x[MR];
  for (; r + 2 * kW <= rend; r += 2 * kW) {
    for (int ii = 0; ii < MR; ++ii) x[ii] = simd::load(a[ii] + r);
    for (int jj = 0; jj < NR; ++jj) {
      const simd::Vec y = simd::load(b[jj] + r);
      for (int ii = 0; ii < MR; ++ii) {
        lo[ii][jj] = simd::mul_add(x[ii], y, lo[ii][jj]);
      }
    }
    for (int ii = 0; ii < MR; ++ii) x[ii] = simd::load(a[ii] + r + kW);
    for (int jj = 0; jj < NR; ++jj) {
      const simd::Vec y = simd::load(b[jj] + r + kW);
      for (int ii = 0; ii < MR; ++ii) {
        hi[ii][jj] = simd::mul_add(x[ii], y, hi[ii][jj]);
      }
    }
  }
  if (r + kW <= rend) {
    for (int ii = 0; ii < MR; ++ii) x[ii] = simd::load(a[ii] + r);
    for (int jj = 0; jj < NR; ++jj) {
      const simd::Vec y = simd::load(b[jj] + r);
      for (int ii = 0; ii < MR; ++ii) {
        lo[ii][jj] = simd::mul_add(x[ii], y, lo[ii][jj]);
      }
    }
    r += kW;
  }
  for (int jj = 0; jj < NR; ++jj) {
    for (int ii = 0; ii < MR; ++ii) {
      double t = simd::reduce_add(simd::add(lo[ii][jj], hi[ii][jj]));
      for (index_t q = r; q < rend; ++q) t += a[ii][q] * b[jj][q];
      part[jj * ldp + ii] += t;
    }
  }
}

/// tn_tile for an edge tile of mr <= MR, nr <= NR entries.
template <int MR, int NR>
void tn_tile_edge(int mr, int nr, const double* const* a,
                  const double* const* b, index_t r0, index_t nb,
                  double* part, index_t ldp) {
  if constexpr (MR > 1) {
    if (mr < MR) {
      tn_tile_edge<MR - 1, NR>(mr, nr, a, b, r0, nb, part, ldp);
      return;
    }
  }
  if constexpr (NR > 1) {
    if (nr < NR) {
      tn_tile_edge<MR, NR - 1>(mr, nr, a, b, r0, nb, part, ldp);
      return;
    }
  }
  tn_tile<MR, NR>(a, b, r0, nb, part, ldp);
}

/// C = alpha * A^T B + beta * C with A given by its column pointers
/// (p columns of m rows; B: m x n, C: p x n).  Entries with
/// i <= j + diag are accumulated; whole tiles beyond that bound are
/// skipped, leaving beta * C there.
void tn_product(double alpha, const std::vector<const double*>& acol,
                index_t m, ConstMatrixView b, double beta, MatrixView c,
                index_t diag) {
  const auto p = static_cast<index_t>(acol.size());
  const index_t n = b.cols;
  assert(b.rows == m && c.rows == p && c.cols == n);
  scale_columns(beta, c);
  if (alpha == 0.0 || m == 0 || p == 0 || n == 0) return;
  std::vector<const double*> bcol(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) bcol[static_cast<std::size_t>(j)] = b.col(j);

  // Deterministic chunked reduction over the long row dimension: one
  // p x n partial Gram block per fixed chunk (bounds depend only on m),
  // combined in ascending chunk order.  Both execution paths below run
  // the identical chunk schedule, so results are bitwise independent of
  // the thread count.
  const std::size_t pn =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(n);
  const std::size_t nchunks =
      par::reduce_chunk_count(static_cast<std::size_t>(m));

  // Accumulates rows [rlo, rhi) of the Gram block into `part`
  // (column-major p x n).  Each part entry receives exactly one addend
  // per r0 tile in ascending r0 order; which tile computes it never
  // matters.  Column blocks keep a 256 x 64 A tile hot across the
  // B column groups; a B group's tile sits in L1 while A streams.
  const auto accumulate = [&](double* part, index_t rlo, index_t rhi) {
    for (index_t r0 = rlo; r0 < rhi; r0 += kRowBlock) {
      const index_t nb = std::min(kRowBlock, rhi - r0);
      for (index_t i0 = 0; i0 < p; i0 += kTnColBlock) {
        const index_t ihi = std::min(p, i0 + kTnColBlock);
        for (index_t j0 = 0; j0 < n; j0 += kTnCols) {
          const index_t nr = std::min<index_t>(kTnCols, n - j0);
          // The group's last wanted row: entries need i <= j + diag.
          const index_t iend = std::min(ihi, j0 + nr + diag);
          for (index_t i = i0; i < iend; i += kTnRows) {
            const index_t mr = std::min<index_t>(kTnRows, iend - i);
            tn_tile_edge<kTnRows, kTnCols>(
                mr, nr, acol.data() + i, bcol.data() + j0, r0, nb,
                part + static_cast<std::size_t>(j0) * p + i, p);
          }
        }
      }
    }
  };
  const auto combine = [&](const double* part) {
    for (index_t j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* pj = part + static_cast<std::size_t>(j) * p;
      for (index_t i = 0; i < p; ++i) cj[i] += alpha * pj[i];
    }
  };

  // Tall-skinny fast path: at the narrow Gram shapes (s ~ 10) the
  // per-chunk work is a few hundred kiloflops, and pool dispatch plus
  // the nchunks * pn partial buffer cost more than the multiply does —
  // threads = 2 ran ~25% BELOW threads = 1 at 100000x10.  Run the same
  // chunk schedule inline, folding each chunk through one reused
  // partial block in ascending order (arithmetic identical to the
  // threaded combine).
  if (static_cast<std::size_t>(m) * pn < kGemmTnSerialWork) {
    util::aligned_vector<double> part(pn);
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
      std::fill(part.begin(), part.end(), 0.0);
      const auto rlo = static_cast<index_t>(ci * par::kReduceChunk);
      const auto rhi = static_cast<index_t>(
          std::min((ci + 1) * par::kReduceChunk, static_cast<std::size_t>(m)));
      accumulate(part.data(), rlo, rhi);
      combine(part.data());
    }
    return;
  }

  // Pad each per-chunk partial block to a 64-byte boundary so chunks
  // written by different threads never share a cache line; the combine
  // reads only the first pn entries of each block.
  const std::size_t stride = (pn + 7) & ~std::size_t{7};
  util::aligned_vector<double> partials(nchunks * stride, 0.0);
  par::for_reduce_chunks(
      static_cast<std::size_t>(m),
      [&](std::size_t ci, std::size_t rb, std::size_t re) {
        accumulate(partials.data() + ci * stride, static_cast<index_t>(rb),
                   static_cast<index_t>(re));
      });
  for (std::size_t ci = 0; ci < nchunks; ++ci) {
    combine(partials.data() + ci * stride);
  }
}

// ---- gemm_nn register tile -------------------------------------------

/// c[jj][i, i + NV*kW) += sum over l in [0, nl) of
/// coef[l * kNnCols + jj] * a[l][i, i + NV*kW): ascending l, one
/// rounded FMA per term — the per-element chain of an axpy sweep.
template <int NC, int NV>
void nn_tile(const double* const* a, index_t nl, const double* coef,
             double* const* c, index_t i) {
  simd::Vec acc[NC][NV];
  for (int jj = 0; jj < NC; ++jj) {
    for (int v = 0; v < NV; ++v) acc[jj][v] = simd::load(c[jj] + i + v * kW);
  }
  for (index_t l = 0; l < nl; ++l) {
    simd::Vec x[NV];
    for (int v = 0; v < NV; ++v) x[v] = simd::load(a[l] + i + v * kW);
    for (int jj = 0; jj < NC; ++jj) {
      const simd::Vec cf = simd::set1(coef[l * kNnCols + jj]);
      for (int v = 0; v < NV; ++v) {
        acc[jj][v] = simd::mul_add(cf, x[v], acc[jj][v]);
      }
    }
  }
  for (int jj = 0; jj < NC; ++jj) {
    for (int v = 0; v < NV; ++v) simd::store(c[jj] + i + v * kW, acc[jj][v]);
  }
}

/// nn_tile for an edge group of nc <= NC columns.
template <int NC, int NV>
void nn_tile_edge(int nc, const double* const* a, index_t nl,
                  const double* coef, double* const* c, index_t i) {
  if constexpr (NC > 1) {
    if (nc < NC) {
      nn_tile_edge<NC - 1, NV>(nc, a, nl, coef, c, i);
      return;
    }
  }
  nn_tile<NC, NV>(a, nl, coef, c, i);
}

// ---- trsm register tile ----------------------------------------------

/// Rows [i, i + NV*kW) of B := B U^{-1}: for each column j ascending,
/// b_j = fma(-u_lj, b_l, b_j) for l < j ascending, skipping u_lj == 0,
/// then b_j *= 1 / u_jj.
template <int NV>
void trsm_tile(ConstMatrixView u, const double* inv, double* const* b,
               index_t i) {
  for (index_t j = 0; j < u.cols; ++j) {
    simd::Vec acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = simd::load(b[j] + i + v * kW);
    for (index_t l = 0; l < j; ++l) {
      const double ulj = u(l, j);
      if (ulj == 0.0) continue;
      const simd::Vec cf = simd::set1(-ulj);
      for (int v = 0; v < NV; ++v) {
        acc[v] = simd::mul_add(cf, simd::load(b[l] + i + v * kW), acc[v]);
      }
    }
    const simd::Vec vinv = simd::set1(inv[j]);
    for (int v = 0; v < NV; ++v) {
      simd::store(b[j] + i + v * kW, simd::mul(vinv, acc[v]));
    }
  }
}

}  // namespace

void gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  assert(a.rows == c.rows && a.cols == b.rows && b.cols == c.cols);
  const index_t m = a.rows, k = a.cols, n = b.cols;
  scale_columns(beta, c);
  if (alpha == 0.0 || k == 0) return;
  std::vector<const double*> acol(static_cast<std::size_t>(k));
  for (index_t l = 0; l < k; ++l) acol[static_cast<std::size_t>(l)] = a.col(l);

  // Output rows are disjoint across threads, and the accumulation order
  // along k for each (i, j) is fixed, so any row partition is exact.
  par::parallel_for_tiles(
      static_cast<std::size_t>(m), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto r0lo = static_cast<index_t>(rb);
        const auto r0hi = static_cast<index_t>(re);
        double coef[kColBlock * kNnCols] = {};
        double* cp[kNnCols] = {};
        for (index_t i0 = r0lo; i0 < r0hi; i0 += kRowBlock) {
          const index_t iend = i0 + std::min(kRowBlock, r0hi - i0);
          // Inner-dimension blocks: the 256 x 64 A tile stays hot across
          // all of C's column groups.  Each C element still takes its
          // FMAs in ascending l, one rounding each, whichever block,
          // tile or tail row computes them.
          for (index_t l0 = 0; l0 < k; l0 += kColBlock) {
            const index_t nl = std::min(k, l0 + kColBlock) - l0;
            const double* const* al = acol.data() + l0;
            for (index_t j0 = 0; j0 < n; j0 += kNnCols) {
              const int nc = std::min<index_t>(kNnCols, n - j0);
              for (int jj = 0; jj < nc; ++jj) {
                cp[jj] = c.col(j0 + jj);
                for (index_t l = 0; l < nl; ++l) {
                  coef[l * kNnCols + jj] = alpha * b(l0 + l, j0 + jj);
                }
              }
              index_t i = i0;
              for (; i + kNnVecs * kW <= iend; i += kNnVecs * kW) {
                nn_tile_edge<kNnCols, kNnVecs>(nc, al, nl, coef, cp, i);
              }
              for (; i + kW <= iend; i += kW) {
                nn_tile_edge<kNnCols, 1>(nc, al, nl, coef, cp, i);
              }
              for (; i < iend; ++i) {
                for (int jj = 0; jj < nc; ++jj) {
                  double cv = cp[jj][i];
                  for (index_t l = 0; l < nl; ++l) {
                    cv = simd::mul_add(coef[l * kNnCols + jj], al[l][i], cv);
                  }
                  cp[jj][i] = cv;
                }
              }
            }
          }
        }
      });
}

void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  assert(a.cols == c.rows && a.rows == b.rows && b.cols == c.cols);
  std::vector<const double*> acol(static_cast<std::size_t>(a.cols));
  for (index_t i = 0; i < a.cols; ++i) acol[static_cast<std::size_t>(i)] = a.col(i);
  tn_product(alpha, acol, a.rows, b, beta, c, a.cols);
}

void fused_gram_tn(ConstMatrixView q, ConstMatrixView v, MatrixView g) {
  assert(q.rows == v.rows && g.rows == q.cols + v.cols && g.cols == v.cols);
  const index_t nq = q.cols, s = v.cols;
  std::vector<const double*> acol(static_cast<std::size_t>(nq + s));
  for (index_t i = 0; i < nq; ++i) acol[static_cast<std::size_t>(i)] = q.col(i);
  for (index_t i = 0; i < s; ++i) {
    acol[static_cast<std::size_t>(nq + i)] = v.col(i);
  }
  // Entry (nq + i, j) of the V^T V block is wanted for i <= j only; the
  // lower triangle is bitwise the upper one (see tn_tile), so mirroring
  // it is exact.
  tn_product(1.0, acol, v.rows, v, 0.0, g, nq);
  for (index_t j = 0; j < s; ++j) {
    for (index_t i = j + 1; i < s; ++i) g(nq + i, j) = g(nq + j, i);
  }
}

void gemm_nt(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  assert(a.rows == c.rows && a.cols == b.cols && b.rows == c.cols);
  const index_t m = a.rows, k = a.cols, n = b.rows;
  scale_columns(beta, c);
  if (alpha == 0.0 || k == 0) return;
  par::parallel_for_tiles(
      static_cast<std::size_t>(m), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto rlo = static_cast<index_t>(rb);
        const auto nb = static_cast<index_t>(re - rb);
        for (index_t j = 0; j < n; ++j) {
          double* cj = c.col(j) + rlo;
          index_t l = 0;
          for (; l + 1 < k; l += 2) {
            fused_axpy2(alpha * b(j, l), a.col(l) + rlo, alpha * b(j, l + 1),
                        a.col(l + 1) + rlo, cj, nb);
          }
          for (; l < k; ++l) {
            fused_axpy1(alpha * b(j, l), a.col(l) + rlo, cj, nb);
          }
        }
      });
}

void trsm_right_upper(ConstMatrixView u, MatrixView b) {
  assert(u.rows == u.cols && u.cols == b.cols);
  const index_t n = b.rows, s = b.cols;
  std::vector<double> inv(static_cast<std::size_t>(s));
  std::vector<double*> bcol(static_cast<std::size_t>(s));
  for (index_t j = 0; j < s; ++j) {
    inv[static_cast<std::size_t>(j)] = 1.0 / u(j, j);
    bcol[static_cast<std::size_t>(j)] = b.col(j);
  }
  // Row-tiled: a kTrsmVecs-vector strip of all s columns stays in
  // registers and L1 through the whole triangular sweep.  Rows never
  // interact in B := B U^{-1}, so tiles run in parallel, and the vector
  // strips and scalar tail rows share one per-element chain.
  par::parallel_for_tiles(
      static_cast<std::size_t>(n), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto rhi = static_cast<index_t>(re);
        auto i = static_cast<index_t>(rb);
        for (; i + kTrsmVecs * kW <= rhi; i += kTrsmVecs * kW) {
          trsm_tile<kTrsmVecs>(u, inv.data(), bcol.data(), i);
        }
        for (; i + kW <= rhi; i += kW) {
          trsm_tile<1>(u, inv.data(), bcol.data(), i);
        }
        for (; i < rhi; ++i) {
          for (index_t j = 0; j < s; ++j) {
            double x = bcol[static_cast<std::size_t>(j)][i];
            for (index_t l = 0; l < j; ++l) {
              const double ulj = u(l, j);
              if (ulj == 0.0) continue;
              x = simd::mul_add(-ulj, bcol[static_cast<std::size_t>(l)][i], x);
            }
            bcol[static_cast<std::size_t>(j)][i] = x * inv[static_cast<std::size_t>(j)];
          }
        }
      });
}

void trmm_right_upper(ConstMatrixView u, MatrixView b) {
  assert(u.rows == u.cols && u.cols == b.cols);
  const index_t n = b.rows, s = b.cols;
  // Row-tiled like trsm_right_upper; columns processed right-to-left
  // within a tile so each source column is still unmodified when read.
  par::parallel_for_tiles(
      static_cast<std::size_t>(n), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto rlo = static_cast<index_t>(rb);
        const auto rhi = static_cast<index_t>(re);
        for (index_t i0 = rlo; i0 < rhi; i0 += kRowBlock) {
          const index_t ib = std::min(kRowBlock, rhi - i0);
          for (index_t j = s - 1; j >= 0; --j) {
            double* bj = b.col(j) + i0;
            const double ujj = u(j, j);
            const simd::Vec vjj = simd::set1(ujj);
            index_t i = 0;
            for (; i + kW <= ib; i += kW) {
              simd::store(bj + i, simd::mul(vjj, simd::load(bj + i)));
            }
            for (; i < ib; ++i) bj[i] *= ujj;
            for (index_t l = 0; l < j; ++l) {
              const double ulj = u(l, j);
              if (ulj == 0.0) continue;
              fused_axpy1(ulj, b.col(l) + i0, bj, ib);
            }
          }
        }
      });
}

void syrk_tn(ConstMatrixView a, MatrixView c) {
  assert(c.rows == a.cols && c.cols == a.cols);
  fused_gram_tn(a.columns(0, 0), a, c);
}

double frobenius_norm(ConstMatrixView a) {
  // One chunked reduction over the row dimension covering all columns
  // per chunk: a single pool dispatch, deterministic because the chunk
  // bounds are fixed and partials combine in ascending order.
  const auto m = static_cast<std::size_t>(a.rows);
  const std::size_t nchunks = par::reduce_chunk_count(m);
  if (a.cols == 0 || nchunks == 0) return 0.0;
  util::aligned_vector<double> partials(nchunks, 0.0);
  par::for_reduce_chunks(m, [&](std::size_t ci, std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (index_t j = 0; j < a.cols; ++j) {
      const double* col = a.col(j) + b;
      acc += dot1(col, col, static_cast<index_t>(e - b));
    }
    partials[ci] = acc;
  });
  double s = 0.0;
  for (const double p : partials) s += p;
  return std::sqrt(s);
}

}  // namespace tsbo::dense
