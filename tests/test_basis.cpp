// Krylov basis polynomials and the Hessenberg assembly machinery.

#include "dense/blas3.hpp"
#include "dense/householder.hpp"
#include "krylov/basis.hpp"
#include "krylov/hessenberg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;
using krylov::KrylovBasis;

TEST(Basis, MonomialIsPureShift) {
  const auto b = KrylovBasis::monomial(10);
  EXPECT_EQ(b.kind(), krylov::BasisKind::kMonomial);
  EXPECT_EQ(b.steps(), 10);
  for (index_t k = 0; k < 10; ++k) {
    EXPECT_EQ(b.step(k).theta, 0.0);
    EXPECT_EQ(b.step(k).sigma, 0.0);
    EXPECT_EQ(b.step(k).gamma, 1.0);
  }
  const Matrix t = b.change_of_basis();
  EXPECT_EQ(t.rows(), 11);
  EXPECT_EQ(t.cols(), 10);
  for (index_t k = 0; k < 10; ++k) EXPECT_EQ(t(k + 1, k), 1.0);
}

TEST(Basis, NewtonShiftsLieInIntervalAndRepeatPerPanel) {
  const auto b = KrylovBasis::newton(20, 5, 1.0, 9.0);
  for (index_t k = 0; k < 20; ++k) {
    EXPECT_GE(b.step(k).theta, 1.0);
    EXPECT_LE(b.step(k).theta, 9.0);
    EXPECT_EQ(b.step(k).sigma, 0.0);
    // Shifts repeat with period s.
    EXPECT_EQ(b.step(k).theta, b.step(k % 5).theta);
  }
  // The s shifts within a panel are distinct (Chebyshev points).
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = i + 1; j < 5; ++j) {
      EXPECT_NE(b.step(i).theta, b.step(j).theta);
    }
  }
}

TEST(Basis, ChebyshevRestartsAtPanelBoundaries) {
  const auto b = KrylovBasis::chebyshev(15, 5, 0.0, 8.0);
  for (index_t k = 0; k < 15; ++k) {
    EXPECT_DOUBLE_EQ(b.step(k).theta, 4.0);  // interval midpoint
    if (k % 5 == 0) {
      EXPECT_EQ(b.step(k).sigma, 0.0);  // recurrence restart
      EXPECT_DOUBLE_EQ(b.step(k).gamma, 4.0);
    } else {
      EXPECT_DOUBLE_EQ(b.step(k).sigma, 2.0);
      EXPECT_DOUBLE_EQ(b.step(k).gamma, 2.0);
    }
  }
}

TEST(Basis, Validation) {
  EXPECT_THROW(KrylovBasis::newton(10, 3, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(KrylovBasis::chebyshev(10, 5, 1.0, 1.0), std::invalid_argument);
}

TEST(LejaOrder, StartsAtMaxMagnitudeAndPermutes) {
  const std::vector<double> pts = {0.5, -3.0, 2.0, 1.0};
  const auto ordered = krylov::leja_order(pts);
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_DOUBLE_EQ(ordered[0], -3.0);
  auto sorted_in = pts;
  auto sorted_out = ordered;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  EXPECT_EQ(sorted_in, sorted_out);
  // Second point maximizes distance from the first.
  EXPECT_DOUBLE_EQ(ordered[1], 2.0);
}

// ---------------------------------------------------------------------------
// Hessenberg assembly: drive it with a tiny dense "matrix" and verify
// the Arnoldi relation A X = Q H column by column.
// ---------------------------------------------------------------------------

TEST(Hessenberg, RecoversArnoldiRelationMonomial) {
  // Small dense SPD-ish matrix; build the Krylov sequence explicitly,
  // QR-factor it exactly (Householder), and feed R/L to the assembler.
  const index_t n = 30, m = 6, s = 3;
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a(i, i) = 4.0 + 0.01 * i;
    if (i > 0) a(i, i - 1) = -1.0;
    if (i + 1 < n) a(i, i + 1) = -1.3;  // nonsymmetric
  }

  // Krylov columns with re-orthogonalized panel starts, mimicking the
  // solver: v_{k+1} = A x_k where x_k is the stored column k.
  Matrix v(n, m + 1);
  v(0, 0) = 1.0;  // e_0 seed (already unit)
  Matrix r(m + 1, m + 1), l(m + 1, m + 1);
  r(0, 0) = 1.0;
  l(0, 0) = 1.0;

  // Basis starts as the raw sequence: orthogonalize each panel with
  // exact Householder against everything before (gold-standard BlkOrth).
  for (index_t p = 0; p < m / s; ++p) {
    const index_t c0 = p * s;
    l.set_zero();  // rebuilt below; unit starts + R interior
    for (index_t k = 0; k < s; ++k) {
      // x = column c0 + k (stored, already orthogonalized for k = 0).
      for (index_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (index_t j = 0; j < n; ++j) sum += a(i, j) * v(j, c0 + k);
        v(i, c0 + k + 1) = sum;
      }
    }
    // Orthogonalize columns [c0+1, c0+s] against [0, c0] and internally
    // via Householder QR of the full prefix (exact, small n).  Only the
    // NEW columns' coefficients are recorded: the prefix is already
    // orthonormal (its R block is the identity), and overwriting the
    // earlier columns' R would lose the raw-vector representations the
    // Hessenberg assembly needs.
    auto qr = dense::householder_qr(v.view().columns(0, c0 + s + 1));
    dense::copy(qr.q.view(), v.view().columns(0, c0 + s + 1));
    for (index_t j = c0 + 1; j <= c0 + s; ++j) {
      for (index_t i = 0; i <= j; ++i) r(i, j) = qr.r(i, j);
    }
  }
  // L: unit at panel starts, R elsewhere.
  for (index_t k = 0; k < m; ++k) {
    if (k % s == 0) {
      l(k, k) = 1.0;
    } else {
      for (index_t i = 0; i <= k; ++i) l(i, k) = r(i, k);
    }
  }

  const auto basis = KrylovBasis::monomial(m);
  Matrix h(m + 1, m);
  krylov::assemble_hessenberg(r.view(), l.view(), basis, s, 1, 0, m,
                              h.view());

  // H satisfies the Arnoldi relation in the ORTHONORMAL basis:
  // A Q = Q_{m+1} H (the construction solves H L = Rhat, and
  // A Q L = Q Rhat exactly, with L invertible).
  for (index_t k = 0; k < m; ++k) {
    for (index_t i = 0; i < n; ++i) {
      double lhs = 0.0;
      for (index_t j = 0; j < n; ++j) lhs += a(i, j) * v(j, k);
      double rhs = 0.0;
      for (index_t j = 0; j <= k + 1; ++j) rhs += v(i, j) * h(j, k);
      ASSERT_NEAR(lhs, rhs, 1e-9) << "column " << k << " row " << i;
    }
  }
}

TEST(Hessenberg, ProgressiveAssemblyMatchesOneShot) {
  const index_t m = 8, s = 2;
  Matrix r(m + 1, m + 1), l(m + 1, m + 1);
  // Synthetic upper-triangular R/L with dominant diagonals.
  for (index_t j = 0; j <= m; ++j) {
    for (index_t i = 0; i < j; ++i) r(i, j) = 0.1 * (i + 1);
    r(j, j) = 2.0 + j;
  }
  for (index_t k = 0; k < m; ++k) {
    if (k % s == 0) {
      l(k, k) = 1.0;
    } else {
      for (index_t i = 0; i <= k; ++i) l(i, k) = r(i, k);
    }
  }
  const auto basis = KrylovBasis::monomial(m);

  Matrix h1(m + 1, m), h2(m + 1, m);
  krylov::assemble_hessenberg(r.view(), l.view(), basis, s, 1, 0, m,
                              h1.view());
  for (index_t c = 0; c < m; c += s) {
    krylov::assemble_hessenberg(r.view(), l.view(), basis, s, 1, c, c + s,
                                h2.view());
  }
  EXPECT_LT(dense::max_abs_diff(h1.view(), h2.view()), 1e-13);
}

TEST(Hessenberg, ThrowsOnSingularL) {
  const index_t m = 4;
  Matrix r(m + 1, m + 1), l(m + 1, m + 1);
  for (index_t j = 0; j <= m; ++j) r(j, j) = 1.0;
  // l(0,0) left zero -> singular representation.
  const auto basis = KrylovBasis::monomial(m);
  Matrix h(m + 1, m);
  EXPECT_THROW(
      krylov::assemble_hessenberg(r.view(), l.view(), basis, 2, 1, 0, m,
                                  h.view()),
      std::runtime_error);
}

}  // namespace
