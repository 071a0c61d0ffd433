// BLAS-1/2/3 kernels against naive references, and the register-tiled
// BLAS-3 kernels bitwise against the one-entry-at-a-time loops they
// replaced.

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "dense/blas3.hpp"
#include "dense/matrix.hpp"
#include "par/config.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

namespace {

using namespace tsbo;
using dense::ConstMatrixView;
using dense::index_t;
using dense::Matrix;

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

Matrix ref_gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b,
                   double beta, ConstMatrixView c0) {
  Matrix c = dense::copy_of(c0);
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < c.cols(); ++j) {
      double s = 0.0;
      for (index_t k = 0; k < a.cols; ++k) s += a(i, k) * b(k, j);
      c(i, j) = alpha * s + beta * c0(i, j);
    }
  }
  return c;
}

TEST(Blas1, DotMatchesNaive) {
  util::Xoshiro256 rng(7);
  std::vector<double> x(1001), y(1001);
  util::fill_normal(rng, x);
  util::fill_normal(rng, y);
  double ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) ref += x[i] * y[i];
  EXPECT_NEAR(dense::dot(x, y), ref, 1e-10 * std::abs(ref) + 1e-12);
}

TEST(Blas1, Nrm2RobustToScale) {
  std::vector<double> x = {3e150, 4e150};
  EXPECT_DOUBLE_EQ(dense::nrm2(x), 5e150);
  std::vector<double> tiny = {3e-160, 4e-160};
  EXPECT_NEAR(dense::nrm2(tiny) / 5e-160, 1.0, 1e-12);
  std::vector<double> zero(5, 0.0);
  EXPECT_EQ(dense::nrm2(zero), 0.0);
}

TEST(Blas1, AxpyScalCopyAmax) {
  std::vector<double> x = {1.0, -2.0, 3.0};
  std::vector<double> y = {0.5, 0.5, 0.5};
  dense::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], -3.5);
  EXPECT_DOUBLE_EQ(y[2], 6.5);
  dense::scal(-1.0, y);
  EXPECT_DOUBLE_EQ(y[1], 3.5);
  EXPECT_DOUBLE_EQ(dense::amax(y), 6.5);
  std::vector<double> z(3);
  dense::vcopy(y, z);
  EXPECT_EQ(z, y);
}

TEST(Blas2, GemvBothTranspositions) {
  const Matrix a = random_matrix(17, 9, 11);
  std::vector<double> x(9), y(17, 1.0);
  util::Xoshiro256 rng(3);
  util::fill_normal(rng, x);

  std::vector<double> y_ref(17);
  for (index_t i = 0; i < 17; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < 9; ++j) s += a(i, j) * x[j];
    y_ref[static_cast<std::size_t>(i)] = 2.0 * s + 3.0 * 1.0;
  }
  dense::gemv(2.0, a.view(), x, 3.0, y);
  for (index_t i = 0; i < 17; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref[static_cast<std::size_t>(i)], 1e-12);
  }

  std::vector<double> xt(17), yt(9, 0.0);
  util::fill_normal(rng, xt);
  dense::gemv_t(1.0, a.view(), xt, 0.0, yt);
  for (index_t j = 0; j < 9; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 17; ++i) s += a(i, j) * xt[static_cast<std::size_t>(i)];
    EXPECT_NEAR(yt[static_cast<std::size_t>(j)], s, 1e-12);
  }
}

TEST(Blas2, TriangularSolves) {
  Matrix u(4, 4);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i <= j; ++i) u(i, j) = 1.0 + i + 2 * j;
  }
  std::vector<double> x_true = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> b(4, 0.0);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = i; j < 4; ++j) b[static_cast<std::size_t>(i)] += u(i, j) * x_true[static_cast<std::size_t>(j)];
  }
  dense::trsv_upper(u.view(), b);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(b[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-12);

  Matrix l(4, 4);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = j; i < 4; ++i) l(i, j) = 1.0 + 2 * i + j;
  }
  std::vector<double> bl(4, 0.0);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j <= i; ++j) bl[static_cast<std::size_t>(i)] += l(i, j) * x_true[static_cast<std::size_t>(j)];
  }
  dense::trsv_lower(l.view(), bl);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(bl[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-12);
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 101);
  const Matrix b = random_matrix(k, n, 102);
  const Matrix c0 = random_matrix(m, n, 103);

  Matrix c = dense::copy_of(c0.view());
  dense::gemm_nn(1.7, a.view(), b.view(), -0.3, c.view());
  const Matrix ref = ref_gemm_nn(1.7, a.view(), b.view(), -0.3, c0.view());
  EXPECT_LT(dense::max_abs_diff(c.view(), ref.view()), 1e-11 * (k + 1));
}

TEST_P(GemmShapes, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  // C (k x n) = A^T (k x m) * B (m x n)
  const Matrix a = random_matrix(m, k, 201);
  const Matrix b = random_matrix(m, n, 202);
  Matrix c(k, n);
  dense::gemm_tn(1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t r = 0; r < m; ++r) s += a(r, i) * b(r, j);
      EXPECT_NEAR(c(i, j), s, 1e-10 * (m + 1));
    }
  }
}

TEST_P(GemmShapes, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  // C (m x n) = A (m x k) * B^T with B (n x k)
  const Matrix a = random_matrix(m, k, 301);
  const Matrix b = random_matrix(n, k, 302);
  Matrix c(m, n);
  dense::gemm_nt(1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t r = 0; r < k; ++r) s += a(i, r) * b(j, r);
      EXPECT_NEAR(c(i, j), s, 1e-10 * (k + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 3, 2),
                      std::make_tuple(64, 6, 6), std::make_tuple(257, 5, 7),
                      std::make_tuple(300, 13, 13), std::make_tuple(1000, 2, 61),
                      std::make_tuple(33, 61, 4)));

TEST(Blas3, TrsmRightUpperInvertsTrmm) {
  const index_t n = 200, s = 7;
  Matrix b0 = random_matrix(n, s, 55);
  Matrix u(s, s);
  util::Xoshiro256 rng(56);
  for (index_t j = 0; j < s; ++j) {
    for (index_t i = 0; i < j; ++i) u(i, j) = rng.normal();
    u(j, j) = 2.0 + rng.uniform();  // well away from zero
  }
  Matrix b = dense::copy_of(b0.view());
  dense::trmm_right_upper(u.view(), b.view());   // b = b0 * U
  dense::trsm_right_upper(u.view(), b.view());   // b = b0 again
  EXPECT_LT(dense::max_abs_diff(b.view(), b0.view()), 1e-12 * s);
}

TEST(Blas3, SyrkIsSymmetricGram) {
  const Matrix a = random_matrix(150, 6, 77);
  Matrix g(6, 6);
  dense::syrk_tn(a.view(), g.view());
  for (index_t i = 0; i < 6; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
      double s = 0.0;
      for (index_t r = 0; r < 150; ++r) s += a(r, i) * a(r, j);
      EXPECT_NEAR(g(i, j), s, 1e-10);
    }
  }
}

// ---- Bitwise oracle ---------------------------------------------------
// The streaming loops gemm_tn / gemm_nn / trsm_right_upper ran before
// their register-tiled rewrite, kept here verbatim as the reference:
// one output entry (or axpy pair) per pass, the same 256-row tiles,
// 64-column blocks and fixed reduction chunks.  The tiled kernels must
// reproduce their results bit for bit at every shape, view and thread
// count; a single reordered FMA in a tile shows up as a mismatch.
namespace oracle {

constexpr index_t kRowBlock = 256;
constexpr index_t kColBlock = 64;
constexpr index_t kW = static_cast<index_t>(simd::kLanes);

void scale_columns(double beta, dense::MatrixView c) {
  if (beta == 1.0) return;
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < c.rows; ++i) {
      c(i, j) = beta == 0.0 ? 0.0 : c(i, j) * beta;
    }
  }
}

void fused_axpy2(double b0, const double* a0, double b1, const double* a1,
                 double* cj, index_t nb) {
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

void fused_axpy1(double b0, const double* a0, double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::store(cj + i,
                simd::mul_add(v0, simd::load(a0 + i), simd::load(cj + i)));
  }
  for (; i < nb; ++i) cj[i] = simd::mul_add(b0, a0[i], cj[i]);
}

void dot2(const double* a0, const double* a1, const double* bj, index_t nb,
          double& s0, double& s1) {
  simd::Vec v0a = simd::zero(), v0b = simd::zero();
  simd::Vec v1a = simd::zero(), v1b = simd::zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    const simd::Vec b0 = simd::load(bj + r);
    const simd::Vec b1 = simd::load(bj + r + kW);
    v0a = simd::mul_add(simd::load(a0 + r), b0, v0a);
    v0b = simd::mul_add(simd::load(a0 + r + kW), b1, v0b);
    v1a = simd::mul_add(simd::load(a1 + r), b0, v1a);
    v1b = simd::mul_add(simd::load(a1 + r + kW), b1, v1b);
  }
  for (; r + kW <= nb; r += kW) {
    const simd::Vec b0 = simd::load(bj + r);
    v0a = simd::mul_add(simd::load(a0 + r), b0, v0a);
    v1a = simd::mul_add(simd::load(a1 + r), b0, v1a);
  }
  double t0 = simd::reduce_add(simd::add(v0a, v0b));
  double t1 = simd::reduce_add(simd::add(v1a, v1b));
  for (; r < nb; ++r) {
    t0 += a0[r] * bj[r];
    t1 += a1[r] * bj[r];
  }
  s0 = t0;
  s1 = t1;
}

double dot1(const double* a0, const double* bj, index_t nb) {
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

void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             dense::MatrixView c) {
  const index_t m = a.rows, p = a.cols, n = b.cols;
  scale_columns(beta, c);
  if (alpha == 0.0 || m == 0 || p == 0 || n == 0) return;
  std::vector<double> part(static_cast<std::size_t>(p) * n);
  for (index_t rlo = 0; rlo < m; rlo += static_cast<index_t>(par::kReduceChunk)) {
    const index_t rhi =
        std::min(m, rlo + static_cast<index_t>(par::kReduceChunk));
    std::fill(part.begin(), part.end(), 0.0);
    for (index_t r0 = rlo; r0 < rhi; r0 += kRowBlock) {
      const index_t nb = std::min(kRowBlock, rhi - r0);
      for (index_t i0 = 0; i0 < p; i0 += kColBlock) {
        const index_t ihi = std::min(p, i0 + kColBlock);
        for (index_t j = 0; j < n; ++j) {
          const double* bj = b.col(j) + r0;
          double* pj = part.data() + static_cast<std::size_t>(j) * p;
          index_t i = i0;
          for (; i + 1 < ihi; i += 2) {
            double s0 = 0.0, s1 = 0.0;
            dot2(a.col(i) + r0, a.col(i + 1) + r0, bj, nb, s0, s1);
            pj[i] += s0;
            pj[i + 1] += s1;
          }
          for (; i < ihi; ++i) pj[i] += dot1(a.col(i) + r0, bj, nb);
        }
      }
    }
    for (index_t j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* pj = part.data() + static_cast<std::size_t>(j) * p;
      for (index_t i = 0; i < p; ++i) cj[i] += alpha * pj[i];
    }
  }
}

void gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             dense::MatrixView c) {
  const index_t m = a.rows, k = a.cols, n = b.cols;
  scale_columns(beta, c);
  if (alpha == 0.0 || k == 0) return;
  for (index_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const index_t ib = std::min(kRowBlock, m - i0);
    for (index_t l0 = 0; l0 < k; l0 += kColBlock) {
      const index_t lhi = std::min(k, l0 + kColBlock);
      for (index_t j = 0; j < n; ++j) {
        double* cj = c.col(j) + i0;
        index_t l = l0;
        for (; l + 1 < lhi; l += 2) {
          fused_axpy2(alpha * b(l, j), a.col(l) + i0, alpha * b(l + 1, j),
                      a.col(l + 1) + i0, cj, ib);
        }
        for (; l < lhi; ++l) fused_axpy1(alpha * b(l, j), a.col(l) + i0, cj, ib);
      }
    }
  }
}

void trsm_right_upper(ConstMatrixView u, dense::MatrixView b) {
  const index_t n = b.rows, s = b.cols;
  for (index_t i0 = 0; i0 < n; i0 += kRowBlock) {
    const index_t ib = std::min(kRowBlock, n - i0);
    for (index_t j = 0; j < s; ++j) {
      double* bj = b.col(j) + i0;
      for (index_t l = 0; l < j; ++l) {
        const double ulj = u(l, j);
        if (ulj == 0.0) continue;
        fused_axpy1(-ulj, b.col(l) + i0, bj, ib);
      }
      const double inv = 1.0 / u(j, j);
      const simd::Vec vinv = simd::set1(inv);
      index_t i = 0;
      for (; i + kW <= ib; i += kW) {
        simd::store(bj + i, simd::mul(vinv, simd::load(bj + i)));
      }
      for (; i < ib; ++i) bj[i] *= inv;
    }
  }
}

/// The full-square Gram, symmetrized by averaging, as syrk_tn computed it.
void syrk_tn(ConstMatrixView a, dense::MatrixView c) {
  oracle::gemm_tn(1.0, a, a, 0.0, c);
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < j; ++i) {
      const double v = 0.5 * (c(i, j) + c(j, i));
      c(i, j) = v;
      c(j, i) = v;
    }
  }
}

}  // namespace oracle

/// A rows x cols view at row offset 1 inside a buffer with ld = rows + 3
/// (unaligned columns, padding that must stay untouched).
struct PaddedMatrix {
  Matrix buf;
  dense::MatrixView view;
  PaddedMatrix(index_t rows, index_t cols, std::uint64_t seed)
      : buf(random_matrix(rows + 3, cols, seed)),
        view(buf.view().block(1, 0, rows, cols)) {}
  PaddedMatrix(const PaddedMatrix& o)
      : buf(dense::copy_of(o.buf.view())),
        view(buf.view().block(1, 0, o.view.rows, o.view.cols)) {}
  PaddedMatrix& operator=(const PaddedMatrix&) = delete;
};

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.data().size() == y.data().size() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size() * sizeof(double)) == 0;
}

/// Upper-triangular U (w x w) with exact zeros — +0 and -0 — above the
/// diagonal, which the TRSM skips.
Matrix upper_with_zeros(index_t w, std::uint64_t seed) {
  Matrix u = random_matrix(w, w, seed);
  for (index_t j = 0; j < w; ++j) {
    for (index_t i = j + 1; i < w; ++i) u(i, j) = 0.0;
    if (j > 1 && j % 3 == 0) u(j / 2, j) = 0.0;
    if (j > 2 && j % 4 == 1) u(1, j) = -0.0;
    u(j, j) = 2.0 + std::abs(u(j, j));
  }
  return u;
}

TEST(Blas3Bitwise, TiledKernelsMatchStreamingLoops) {
  const index_t ms[] = {1, 7, 8, 15, 16, 17, 255, 257, 4095, 4097, 20003};
  const index_t ws[] = {1, 2, 3, 4, 5, 6, 7, 60, 61, 65, 240};
  const double alphas[] = {1.0, -1.0, 0.3};
  const double betas[] = {0.0, 1.0, 0.5};
  int combo = 0;
  for (const index_t m : ms) {
    for (const index_t w : ws) {
      // Keeps the test quick (sanitizer builds run it too): the widest
      // panel skips the longest m, whose chunked path 20003 x 65
      // already covers, and large shapes run at one thread only.
      if (static_cast<double>(m) * w * w > 4e8) continue;
      const bool large = static_cast<double>(m) * w * w > 1e8;
      std::vector<index_t> ns = {w};
      if (w != 5) ns.push_back(5);
      if (w != 1) ns.push_back(1);
      for (const index_t n : ns) {
        const double alpha = alphas[combo % 3];
        const double beta = betas[(combo / 3) % 3];
        ++combo;
        const auto seed = static_cast<std::uint64_t>(1000 * m + 10 * w + n);
        const PaddedMatrix a(m, w, seed);
        const PaddedMatrix b(m, n, seed + 1);
        const PaddedMatrix c0(w, n, seed + 2);
        const PaddedMatrix r(w, n, seed + 3);
        const PaddedMatrix v0(m, n, seed + 4);
        const Matrix u = upper_with_zeros(w, seed + 5);
        const PaddedMatrix t0(m, w, seed + 6);

        PaddedMatrix tn_ref(c0), nn_ref(v0), trsm_ref(t0);
        oracle::gemm_tn(alpha, a.view, b.view, beta, tn_ref.view);
        oracle::gemm_nn(alpha, a.view, r.view, beta, nn_ref.view);
        oracle::trsm_right_upper(u.view(), trsm_ref.view);
        // Stacked [A; B]^T B and A^T A, as two / one full gemm_tn.
        Matrix fused_ref(w + n, n), syrk_ref(w, w);
        oracle::gemm_tn(1.0, a.view, b.view, 0.0,
                        fused_ref.view().block(0, 0, w, n));
        oracle::gemm_tn(1.0, b.view, b.view, 0.0,
                        fused_ref.view().block(w, 0, n, n));
        if (n == w) oracle::syrk_tn(a.view, syrk_ref.view());

        for (const unsigned threads : {1u, 2u, 7u}) {
          if (large && threads > 1) continue;
          par::set_num_threads(threads);
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " w=" << w << " n=" << n
                       << " alpha=" << alpha << " beta=" << beta
                       << " threads=" << threads);
          PaddedMatrix tn(c0), nn(v0), trsm(t0);
          dense::gemm_tn(alpha, a.view, b.view, beta, tn.view);
          EXPECT_TRUE(same_bits(tn.buf, tn_ref.buf)) << "gemm_tn";
          dense::gemm_nn(alpha, a.view, r.view, beta, nn.view);
          EXPECT_TRUE(same_bits(nn.buf, nn_ref.buf)) << "gemm_nn";
          dense::trsm_right_upper(u.view(), trsm.view);
          EXPECT_TRUE(same_bits(trsm.buf, trsm_ref.buf)) << "trsm_right_upper";
          Matrix fused(w + n, n);
          dense::fused_gram_tn(a.view, b.view, fused.view());
          EXPECT_TRUE(same_bits(fused, fused_ref)) << "fused_gram_tn";
          if (n == w) {
            Matrix syrk(w, w);
            dense::syrk_tn(a.view, syrk.view());
            EXPECT_TRUE(same_bits(syrk, syrk_ref)) << "syrk_tn";
          }
        }
      }
    }
  }
  par::set_num_threads(0);
}

TEST(Blas3, FrobeniusNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(dense::frobenius_norm(a.view()), 5.0);
}

TEST(MatrixView, BlockAndColumnsViews) {
  Matrix m(6, 5);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 6; ++i) m(i, j) = i + 10.0 * j;
  }
  auto blk = m.view().block(2, 1, 3, 2);
  EXPECT_EQ(blk.rows, 3);
  EXPECT_EQ(blk.cols, 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(blk(2, 1), 24.0);
  blk(0, 0) = -1.0;
  EXPECT_DOUBLE_EQ(m(2, 1), -1.0);

  auto cols = m.view().columns(3, 2);
  EXPECT_DOUBLE_EQ(cols(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(cols(5, 1), 45.0);
}

TEST(MatrixView, CopyAndMaxAbsDiff) {
  const Matrix a = random_matrix(10, 4, 5);
  Matrix b(10, 4);
  dense::copy(a.view(), b.view());
  EXPECT_EQ(dense::max_abs_diff(a.view(), b.view()), 0.0);
  b(3, 2) += 0.5;
  EXPECT_DOUBLE_EQ(dense::max_abs_diff(a.view(), b.view()), 0.5);
}

}  // namespace
