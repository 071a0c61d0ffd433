#include "ortho/cgs.hpp"

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "util/aligned.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace tsbo::ortho {

namespace {

/// c = Q^T v with one reduce ("dot-products" bucket).
void project(OrthoContext& ctx, ConstMatrixView q, std::span<const double> v,
             std::span<double> c) {
  if (ctx.timers) ctx.timers->start("ortho/dot");
  dense::gemv_t(1.0, q, v, 0.0, c);
  if (ctx.timers) ctx.timers->stop("ortho/dot");
  if (ctx.comm) {
    if (ctx.timers) ctx.timers->start("ortho/reduce");
    ctx.comm->allreduce_sum(c);
    if (ctx.timers) ctx.timers->stop("ortho/reduce");
  }
}

/// v -= Q c ("vector-updates" bucket).
void update(OrthoContext& ctx, ConstMatrixView q, std::span<const double> c,
            std::span<double> v) {
  if (ctx.timers) ctx.timers->start("ortho/update");
  dense::gemv(-1.0, q, c, 1.0, v);
  if (ctx.timers) ctx.timers->stop("ortho/update");
}

}  // namespace

void cgs2_step(OrthoContext& ctx, ConstMatrixView q, std::span<double> v,
               std::span<double> h) {
  const auto nq = static_cast<std::size_t>(q.cols);
  assert(h.size() == nq + 1);
  std::fill(h.begin(), h.end(), 0.0);

  if (nq > 0) {
    util::aligned_vector<double> c(nq, 0.0);
    project(ctx, q, v, c);
    update(ctx, q, c, v);
    for (std::size_t i = 0; i < nq; ++i) h[i] = c[i];

    // Re-orthogonalization pass.
    project(ctx, q, v, c);
    update(ctx, q, c, v);
    for (std::size_t i = 0; i < nq; ++i) h[i] += c[i];
  }

  const double nrm = global_norm(ctx, v);
  h[nq] = nrm;
  if (nrm > 0.0) {
    if (ctx.timers) ctx.timers->start("ortho/update");
    dense::scal(1.0 / nrm, v);
    if (ctx.timers) ctx.timers->stop("ortho/update");
  }
}

}  // namespace tsbo::ortho
