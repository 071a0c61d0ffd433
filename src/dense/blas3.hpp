#pragma once
// BLAS-3 style blocked kernels.
//
// These carry the paper's performance argument: block orthogonalization
// (BCGS/CholQR/BCGS-PIP) spends its local flops in GEMM with a block
// size of s+1 (one-stage) or bs+1 (two-stage second stage), and larger
// block sizes mean more reuse of the streamed tall operand per pass.
// The kernels below are row-blocked so that the panel tile stays in
// cache while the tall matrix streams through once, and threaded over
// row tiles via par::ThreadPool.  Reductions (gemm_tn, frobenius_norm)
// follow the fixed-chunk deterministic scheme of par/config.hpp, so
// results are bit-identical at any thread count.
//
// gemm_tn, gemm_nn and trsm_right_upper run register-tiled inner
// loops (tile shapes fixed per SIMD ISA at compile time, see blas3.cpp)
// that keep every output entry's FMA chain exactly that of the
// one-entry-at-a-time loop: the tile shape never changes a bit.  In
// particular entry (i, j) of A^T A is bitwise entry (j, i), which is
// what lets syrk_tn and fused_gram_tn compute only the upper triangle
// of a self-Gram and mirror it exactly.

#include "dense/matrix.hpp"

namespace tsbo::dense {

/// C = alpha * A * B + beta * C   (A: m x k, B: k x n, C: m x n)
void gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// C = alpha * A^T * B + beta * C   (A: m x k, B: m x n, C: k x n)
///
/// This is the "GEMM for dot-products" of the paper's Fig. 2: the block
/// inner product Q^T V, and the fused Gram matrix [Q, V]^T V of
/// BCGS-PIP.  A and B stream; C is tiny and accumulates in cache.
void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// C = alpha * A * B^T + beta * C   (A: m x k, B: n x k, C: m x n)
void gemm_nt(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// B := B * U^{-1}  with U upper triangular (the "TRSM for normalize"
/// of CholQR, paper Fig. 3a).  B is n x s tall-skinny.
void trsm_right_upper(ConstMatrixView u, MatrixView b);

/// B := B * U  (multiply on the right by upper triangular U).
void trmm_right_upper(ConstMatrixView u, MatrixView b);

/// C = A^T A — the Gram matrix kernel of CholQR.  Computes the upper
/// triangle only and mirrors it, half the work of gemm_tn(a, a) with
/// bitwise the same (exactly symmetric) result.
void syrk_tn(ConstMatrixView a, MatrixView c);

/// G = [Q, V]^T V in one pass over V (the fused Gram of BCGS-PIP):
/// rows [0, q) hold Q^T V, rows [q, q + s) the V^T V block, computed
/// as its upper triangle and mirrored like syrk_tn.  G is (q + s) x s
/// for q = Q.cols, s = V.cols; bitwise equal to gemm_tn(Q, V) stacked
/// on gemm_tn(V, V).
void fused_gram_tn(ConstMatrixView q, ConstMatrixView v, MatrixView g);

/// Frobenius norm of a view.
double frobenius_norm(ConstMatrixView a);

}  // namespace tsbo::dense
