#pragma once
// Sparse matrix-vector products.
//
// All entry points share one pointer-based row kernel and are threaded
// over disjoint row ranges via par::ThreadPool; per-row accumulation
// order is fixed by the CSR layout, so results are bit-identical at any
// thread count.  SPMD rank threads always take the serial path (see
// par::ScopedSerial); other concurrent callers degrade automatically.

#include "sparse/csr.hpp"

#include <span>

namespace tsbo::sparse {

/// y = A x
void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y);

/// y = alpha * A x + beta * y
void spmv(double alpha, const CsrMatrix& a, std::span<const double> x,
          double beta, std::span<double> y);

/// Rows [begin, end) only: y[begin..end) = A(begin..end, :) x.
/// Building block for threaded and rank-local products.
void spmv_rows(const CsrMatrix& a, ord begin, ord end,
               std::span<const double> x, std::span<double> y);

}  // namespace tsbo::sparse
