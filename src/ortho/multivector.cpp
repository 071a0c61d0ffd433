#include "ortho/multivector.hpp"

#include "dense/blas1.hpp"
#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "util/aligned.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <span>
#include <vector>

namespace tsbo::ortho {

namespace {

void time_start(OrthoContext& ctx, const char* phase) {
  if (ctx.timers) ctx.timers->start(phase);
}
void time_stop(OrthoContext& ctx, const char* phase) {
  if (ctx.timers) ctx.timers->stop(phase);
}

// `gram.stage1` fault seam: consulted once per fused stage-1 Gram,
// after the local gemm and before the reduce is published (a throw
// here leaves no pending collective behind).  A
// corrupt flips the same bit of every rank's local partial at the same
// (row, col) — the reduced Gram is perturbed by a detectable 2^64-scale
// entry on all ranks identically.
void consult_gram_fault(OrthoContext& ctx, MatrixView g) {
  if (ctx.comm == nullptr) return;
  ctx.comm->consult_fault(par::FaultSite::kGramStage1, [g](long ordinal) {
    const long cells = static_cast<long>(g.rows) * static_cast<long>(g.cols);
    if (cells == 0) return;
    const long cell = ordinal % cells;
    par::FaultInjector::flip_bit(g.col(cell / g.rows)[cell % g.rows]);
  });
}

}  // namespace

PendingReduce ireduce_sum(OrthoContext& ctx, MatrixView c) {
  PendingReduce p;
  p.ctx_ = &ctx;
  p.hi_ = c;
  p.pending_ = true;
  if (ctx.comm) {
    time_start(ctx, "ortho/reduce");
    if (c.ld == c.rows) {
      p.req_ = ctx.comm->iallreduce_sum(std::span<double>(
          c.data,
          static_cast<std::size_t>(c.rows) * static_cast<std::size_t>(c.cols)));
    } else {
      // Strided view (a sub-block of the solver's global R matrix):
      // pack, reduce, unpack at wait().  Reducing the raw strided
      // memory would corrupt the surrounding coefficients.
      p.packed_hi_.resize(static_cast<std::size_t>(c.rows) *
                          static_cast<std::size_t>(c.cols));
      for (dense::index_t j = 0; j < c.cols; ++j) {
        std::copy_n(c.col(j), c.rows,
                    p.packed_hi_.data() + static_cast<std::size_t>(j) * c.rows);
      }
      p.req_ = ctx.comm->iallreduce_sum(p.packed_hi_);
    }
    time_stop(ctx, "ortho/reduce");
  }
  return p;
}

PendingReduce ireduce_sum_dd(OrthoContext& ctx, MatrixView hi, MatrixView lo) {
  PendingReduce p;
  p.ctx_ = &ctx;
  p.hi_ = hi;
  p.lo_ = lo;
  p.dd_ = true;
  p.pending_ = true;
  if (ctx.comm) {
    time_start(ctx, "ortho/reduce");
    const std::size_t total =
        static_cast<std::size_t>(hi.rows) * static_cast<std::size_t>(hi.cols);
    if (hi.ld == hi.rows && lo.ld == lo.rows) {
      p.req_ = ctx.comm->iallreduce_sum_dd(std::span<double>(hi.data, total),
                                           std::span<double>(lo.data, total));
    } else {
      p.packed_hi_.resize(total);
      p.packed_lo_.resize(total);
      for (dense::index_t j = 0; j < hi.cols; ++j) {
        std::copy_n(hi.col(j), hi.rows,
                    p.packed_hi_.data() + static_cast<std::size_t>(j) * hi.rows);
        std::copy_n(lo.col(j), lo.rows,
                    p.packed_lo_.data() + static_cast<std::size_t>(j) * lo.rows);
      }
      p.req_ = ctx.comm->iallreduce_sum_dd(p.packed_hi_, p.packed_lo_);
    }
    time_stop(ctx, "ortho/reduce");
  }
  return p;
}

void PendingReduce::wait() {
  if (!pending_) return;
  pending_ = false;
  if (ctx_ == nullptr || ctx_->comm == nullptr) return;
  // When an exception (e.g. an injected fault) unwinds through the
  // reduce window, the interrupted call site may have left
  // "ortho/reduce" running; completing the collective is what keeps
  // the ranks deadlock-free — drop the timing rather than trip the
  // phase-state check inside a destructor.
  const bool timed = ctx_->timers != nullptr && std::uncaught_exceptions() == 0;
  if (timed) ctx_->timers->start("ortho/reduce");
  req_.wait();
  if (!packed_hi_.empty()) {
    for (dense::index_t j = 0; j < hi_.cols; ++j) {
      std::copy_n(packed_hi_.data() + static_cast<std::size_t>(j) * hi_.rows,
                  hi_.rows, hi_.col(j));
    }
  }
  if (dd_ && !packed_lo_.empty()) {
    for (dense::index_t j = 0; j < lo_.cols; ++j) {
      std::copy_n(packed_lo_.data() + static_cast<std::size_t>(j) * lo_.rows,
                  lo_.rows, lo_.col(j));
    }
  }
  if (timed) ctx_->timers->stop("ortho/reduce");
}

void block_dot(OrthoContext& ctx, ConstMatrixView a, ConstMatrixView b,
               MatrixView c, const OverlapHook& overlap) {
  time_start(ctx, "ortho/dot");
  if (ctx.mixed_precision_gram) {
    dense::gemm_tn_dd(a, b, c);
  } else {
    dense::gemm_tn(1.0, a, b, 0.0, c);
  }
  time_stop(ctx, "ortho/dot");
  PendingReduce pending = ireduce_sum(ctx, c);
  if (overlap) {
    overlap();
  } else {
    pending.no_overlap_credit();  // empty window: nothing was hidden
  }
  pending.wait();
}

void block_dot_dd(OrthoContext& ctx, ConstMatrixView a, ConstMatrixView b,
                  MatrixView c_hi, MatrixView c_lo) {
  time_start(ctx, "ortho/dot");
  dense::gemm_tn_dd(a, b, c_hi, c_lo);
  time_stop(ctx, "ortho/dot");
  PendingReduce pending = ireduce_sum_dd(ctx, c_hi, c_lo);
  pending.no_overlap_credit();
  pending.wait();
}

PendingReduce fused_gram_ireduce(OrthoContext& ctx, ConstMatrixView q,
                                 ConstMatrixView v, MatrixView g) {
  assert(g.rows == q.cols + v.cols && g.cols == v.cols);
  time_start(ctx, "ortho/dot");
  MatrixView top = g.block(0, 0, q.cols, v.cols);
  MatrixView bottom = g.block(q.cols, 0, v.cols, v.cols);
  // Always working precision: the mixed-precision BCGS-PIP path goes
  // through fused_gram_dd, which keeps the pair form alive for the
  // Pythagorean update and Cholesky (rounding here would reintroduce
  // the eps^{-1/2} cliff this layer exists to remove).
  if (q.cols > 0) dense::gemm_tn(1.0, q, v, 0.0, top);
  dense::gemm_tn(1.0, v, v, 0.0, bottom);
  time_stop(ctx, "ortho/dot");
  consult_gram_fault(ctx, g);
  return ireduce_sum(ctx, g);
}

void fused_gram(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                MatrixView g) {
  PendingReduce pending = fused_gram_ireduce(ctx, q, v, g);
  pending.no_overlap_credit();
  pending.wait();
}

PendingReduce fused_gram_dd_ireduce(OrthoContext& ctx, ConstMatrixView q,
                                    ConstMatrixView v, MatrixView g_hi,
                                    MatrixView g_lo) {
  assert(g_hi.rows == q.cols + v.cols && g_hi.cols == v.cols);
  assert(g_lo.rows == g_hi.rows && g_lo.cols == g_hi.cols);
  time_start(ctx, "ortho/dot");
  if (q.cols > 0) {
    dense::gemm_tn_dd(q, v, g_hi.block(0, 0, q.cols, v.cols),
                      g_lo.block(0, 0, q.cols, v.cols));
  }
  dense::gemm_tn_dd(v, v, g_hi.block(q.cols, 0, v.cols, v.cols),
                    g_lo.block(q.cols, 0, v.cols, v.cols));
  time_stop(ctx, "ortho/dot");
  consult_gram_fault(ctx, g_hi);
  return ireduce_sum_dd(ctx, g_hi, g_lo);
}

void fused_gram_dd(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                   MatrixView g_hi, MatrixView g_lo) {
  PendingReduce pending = fused_gram_dd_ireduce(ctx, q, v, g_hi, g_lo);
  pending.no_overlap_credit();
  pending.wait();
}

void block_update(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView c,
                  MatrixView v) {
  if (q.cols == 0) return;
  time_start(ctx, "ortho/update");
  dense::gemm_nn(-1.0, q, c, 1.0, v);
  time_stop(ctx, "ortho/update");
}

void block_scale(OrthoContext& ctx, ConstMatrixView r, MatrixView v) {
  time_start(ctx, "ortho/trsm");
  dense::trsm_right_upper(r, v);
  time_stop(ctx, "ortho/trsm");
}

namespace {

/// Shared breakdown-recovery scaffolding for the plain and dd Cholesky
/// paths.  `factor` attempts the factorization in place;
/// `retry_shifted(shift)` must restore the matrix and re-factor with
/// the diagonal shift.  Shifts follow Fukaya et al.: base =
/// 11 (n+1) u ||G||_1 at the path's unit roundoff u, growing 100x per
/// attempt — termination is guaranteed since a shift exceeding
/// ||G||_1 >= |lambda_min(G)| makes G + shift*I positive definite.
void chol_with_policy(OrthoContext& ctx, const std::string& what,
                      const char* indefinite_detail,
                      const char* persist_detail, double gnorm,
                      double unit_roundoff, index_t n,
                      const std::function<bool()>& factor,
                      const std::function<bool(double)>& retry_shifted) {
  time_start(ctx, "ortho/chol");
  if (!factor()) {
    ctx.cholesky_breakdowns += 1;
    if (ctx.policy == BreakdownPolicy::kThrow) {
      time_stop(ctx, "ortho/chol");
      throw CholeskyBreakdown("Cholesky breakdown in " + what +
                              indefinite_detail);
    }
    // A non-finite Gram (overflowing basis) defeats the shift logic —
    // NaN shifts neither factor nor trip the growth bail-out — so fail
    // loudly instead of retrying forever.
    if (!std::isfinite(gnorm)) {
      time_stop(ctx, "ortho/chol");
      throw CholeskyBreakdown("Cholesky breakdown in " + what +
                              " (Gram matrix not finite)");
    }
    double shift = std::max(
        11.0 * (static_cast<double>(n) + 1.0) * unit_roundoff * gnorm,
        std::numeric_limits<double>::min());
    bool fixed = false;
    while (true) {
      ctx.shift_retries += 1;
      if (retry_shifted(shift)) {
        fixed = true;
        break;
      }
      if (shift > 2.0 * gnorm) break;  // mathematically impossible; bail
      shift *= 100.0;
    }
    if (!fixed) {
      time_stop(ctx, "ortho/chol");
      throw CholeskyBreakdown("Cholesky breakdown in " + what +
                              persist_detail);
    }
  }
  time_stop(ctx, "ortho/chol");
}

/// Records the diagonal-ratio conditioning estimate of a successful
/// Gram factorization: est = (max|r_ii| / min|r_ii|)^2 <= kappa_2(G).
/// `r` is the upper factor (the hi part suffices for the dd path — the
/// lo correction cannot move the ratio's order of magnitude).
void record_gram_kappa(OrthoContext& ctx, ConstMatrixView r) {
  if (r.rows == 0) return;
  double dmax = 0.0;
  double dmin = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < r.rows; ++i) {
    const double d = std::abs(r(i, i));
    dmax = std::max(dmax, d);
    dmin = std::min(dmin, d);
  }
  const double est = (dmin > 0.0 && dmax > 0.0)
                         ? (dmax / dmin) * (dmax / dmin)
                         : std::numeric_limits<double>::infinity();
  ctx.last_gram_kappa = est;
  ctx.gram_kappa_peak = std::max(ctx.gram_kappa_peak, est);
}

/// Consults the fault-injection seam.  Counts the attempt even with no
/// injector installed so the ordinal always means "global Gram Cholesky
/// index", independent of whether a test is listening.
bool consume_injected_breakdown(OrthoContext& ctx) {
  const long ordinal = ctx.chol_attempts++;
  return ctx.inject_breakdown && ctx.inject_breakdown(ordinal);
}

}  // namespace

void chol_factor(OrthoContext& ctx, MatrixView g, const std::string& what) {
  // Keep a pristine copy in case a shifted retry is needed.
  dense::Matrix saved = dense::copy_of(g);
  const bool forced = consume_injected_breakdown(ctx);
  chol_with_policy(
      ctx, what,
      " (Gram matrix numerically indefinite; condition (1)/(5)/(9) violated)",
      " persists after shifted retries", dense::one_norm(saved.view()),
      std::numeric_limits<double>::epsilon(), g.rows,
      [&] { return !forced && dense::potrf_upper(g).ok(); },
      [&](double shift) {
        dense::copy(saved.view(), g);
        return dense::potrf_upper_shifted(g, shift).ok();
      });
  record_gram_kappa(ctx, g);
}

void chol_factor_dd(OrthoContext& ctx, MatrixView g_hi, MatrixView g_lo,
                    const std::string& what) {
  dense::Matrix saved_hi = dense::copy_of(g_hi);
  dense::Matrix saved_lo = dense::copy_of(g_lo);
  const bool forced = consume_injected_breakdown(ctx);
  // Shifted retries start at u_dd * ||G||: the Gram entries are exact
  // to ~m * u_dd, so recovery perturbs ~1e16x less than the double
  // path's eps * ||G|| base.
  chol_with_policy(
      ctx, what,
      " (Gram matrix indefinite even at dd precision; kappa(V) beyond ~1e15)",
      " persists after shifted dd retries", dense::one_norm(saved_hi.view()),
      eft::kUnitRoundoff, g_hi.rows,
      [&] { return !forced && dense::potrf_upper_dd(g_hi, g_lo).ok(); },
      [&](double shift) {
        dense::copy(saved_hi.view(), g_hi);
        dense::copy(saved_lo.view(), g_lo);
        return dense::potrf_upper_dd_shifted(g_hi, g_lo, shift).ok();
      });
  record_gram_kappa(ctx, g_hi);
}

double global_norm(OrthoContext& ctx, std::span<const double> x) {
  // Deterministic threaded local sum; ranks then combine via the
  // (deterministic) all-reduce, keeping the factor replicated exactly.
  double s = dense::sumsq(x);
  if (ctx.comm) {
    time_start(ctx, "ortho/reduce");
    s = ctx.comm->allreduce_sum_scalar(s);
    time_stop(ctx, "ortho/reduce");
  }
  return std::sqrt(s);
}

}  // namespace tsbo::ortho
