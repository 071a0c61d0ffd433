#include "krylov/sstep_gmres.hpp"

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "dense/blas3.hpp"
#include "dense/block_householder.hpp"
#include "dense/givens.hpp"
#include "krylov/hessenberg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsbo::krylov {

std::unique_ptr<ortho::BlockOrthoManager> two_stage_manager(
    const SStepGmresConfig& cfg) {
  if (cfg.bs < cfg.s || cfg.bs > cfg.m || cfg.s <= 0 || cfg.bs % cfg.s != 0) {
    throw std::invalid_argument(
        "two_stage: requires s <= bs <= m with s | bs (got s=" +
        std::to_string(cfg.s) + " bs=" + std::to_string(cfg.bs) +
        " m=" + std::to_string(cfg.m) + ")");
  }
  return ortho::make_two_stage_manager(cfg.bs);
}

std::unique_ptr<ortho::BlockOrthoManager> make_manager(
    const SStepGmresConfig& cfg) {
  if (!cfg.manager_factory) {
    throw std::invalid_argument("make_manager: no manager_factory set");
  }
  auto manager = cfg.manager_factory(cfg);
  if (manager == nullptr) {
    throw std::invalid_argument(
        "make_manager: manager_factory returned null for this config");
  }
  return manager;
}

namespace {

void validate(const SStepGmresConfig& cfg, index_t k) {
  if (cfg.s <= 0 || cfg.m <= 0 || cfg.m % cfg.s != 0) {
    throw std::invalid_argument("sstep_gmres: s must divide m");
  }
  if ((cfg.basis == BasisKind::kNewton || cfg.basis == BasisKind::kChebyshev) &&
      !(cfg.lambda_max > cfg.lambda_min)) {
    throw std::invalid_argument(
        "sstep_gmres: Newton/Chebyshev bases need a spectral interval");
  }
  if (k < 1) {
    throw std::invalid_argument("sstep_gmres: needs at least one RHS column");
  }
  if (!cfg.conv_reference.empty() &&
      static_cast<index_t>(cfg.conv_reference.size()) != k) {
    throw std::invalid_argument(
        "sstep_gmres: conv_reference must hold one norm per RHS");
  }
  if (cfg.autopilot.enabled) {
    if (!(cfg.autopilot.kappa_high > cfg.autopilot.kappa_low) ||
        !(cfg.autopilot.kappa_low > 0.0)) {
      throw std::invalid_argument(
          "sstep_gmres: autopilot needs 0 < kappa_low < kappa_high");
    }
    if (cfg.autopilot.s_min < 1 || cfg.autopilot.patience < 1) {
      throw std::invalid_argument(
          "sstep_gmres: autopilot needs s_min >= 1 and patience >= 1");
    }
  }
}

/// The Newton/Chebyshev recurrences depend on the panel width, so a
/// basis built here is valid only for the step size it was built with —
/// the autopilot rebuilds on every s change.
KrylovBasis make_basis(const SStepGmresConfig& cfg, index_t s) {
  switch (cfg.basis) {
    case BasisKind::kMonomial:
      return KrylovBasis::monomial(cfg.m);
    case BasisKind::kNewton:
      return KrylovBasis::newton(cfg.m, s, cfg.lambda_min, cfg.lambda_max);
    case BasisKind::kChebyshev:
      return KrylovBasis::chebyshev(cfg.m, s, cfg.lambda_min, cfg.lambda_max);
  }
  throw std::invalid_argument("sstep_gmres: unknown basis");
}

/// Step-size ladder for the autopilot: ascending divisors d of m with
/// autopilot.s_min <= d <= s, additionally required to divide bs when
/// the configured s does (preserving the two-stage invariant s | bs).
/// Always ends with the configured s, which is exempt from the s_min
/// floor — the user's choice is the ladder's top rung by definition.
std::vector<index_t> step_ladder(const SStepGmresConfig& cfg) {
  std::vector<index_t> ladder;
  const bool tie_bs = cfg.bs % cfg.s == 0;
  for (index_t d = 1; d <= cfg.s; ++d) {
    if (cfg.m % d != 0) continue;
    if (tie_bs && cfg.bs % d != 0) continue;
    if (d < cfg.autopilot.s_min && d != cfg.s) continue;
    ladder.push_back(d);
  }
  if (ladder.empty() || ladder.back() != cfg.s) ladder.push_back(cfg.s);
  return ladder;
}

/// With the double-double Gram in effect the plain-double kappa_high no
/// longer binds; escalation pressure resumes only near the dd validity
/// edge (basis kappa ~ u_dd^{-1/2} ~ 1e15, taken with two orders of
/// margin, mirroring kappa_high's default margin to eps^{-1/2}).
constexpr double kDdKappaHigh = 1e13;

/// Operator-norm estimate for the monomial/Newton gamma scaling (one
/// allreduce): max row sum of |A|, of |D^{-1} A| under a (roughly
/// diagonal-normalizing) preconditioner.
double gamma_scale_estimate(par::Communicator& comm, const sparse::DistCsr& a,
                            const precond::Preconditioner* m_prec) {
  const sparse::CsrMatrix& local = a.local_matrix();
  double est = 0.0;
  for (sparse::ord i = 0; i < local.rows; ++i) {
    double row = 0.0;
    double diag = 1.0;
    for (sparse::offset k = local.row_ptr[i]; k < local.row_ptr[i + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      row += std::abs(local.values[kk]);
      if (local.col_idx[kk] == i) diag = std::abs(local.values[kk]);
    }
    est = std::max(est, m_prec != nullptr && diag > 0.0 ? row / diag : row);
  }
  return comm.allreduce_max_scalar(est);
}

/// Explicit residuals R = B - A X of the RHS columns `cols` (ascending;
/// written to the leading columns of `r`) and their norms: one
/// DistCsr::apply (one halo exchange) for all columns.  One column
/// takes one norm reduce; wider blocks take one Gram reduce G = R^T R,
/// left in `g`: its diagonal gives the norms, and at a restart boundary
/// it seeds the next cycle's CholQR with no second synchronization.
std::vector<double> residual_norms(par::Communicator& comm,
                                   ortho::OrthoContext& octx,
                                   const sparse::DistCsr& a,
                                   dense::ConstMatrixView b,
                                   dense::ConstMatrixView x,
                                   const std::vector<index_t>& cols,
                                   dense::Matrix& r, dense::Matrix& xwork,
                                   dense::Matrix& ax, dense::Matrix& g) {
  const auto w = static_cast<index_t>(cols.size());
  const auto nloc = static_cast<std::size_t>(r.rows());
  // The apply publishes its operand as it is, so the columns must lie
  // at stride nloc: an adjacent run of x's columns is used in place
  // (one column always is one), anything else is packed into xwork.
  dense::ConstMatrixView xa = x.columns(cols.front(), w);
  if (cols.back() - cols.front() + 1 != w || (w > 1 && x.ld != x.rows)) {
    if (xwork.cols() < w) xwork = dense::Matrix(r.rows(), w);
    for (index_t t = 0; t < w; ++t) {
      const double* xc = x.col(cols[static_cast<std::size_t>(t)]);
      std::copy(xc, xc + nloc, xwork.col(t));
    }
    xa = xwork.block(0, 0, xwork.rows(), w);
  }
  a.apply(comm, xa, ax.block(0, 0, ax.rows(), w), octx.timers);
  for (index_t t = 0; t < w; ++t) {
    const double* bc = b.col(cols[static_cast<std::size_t>(t)]);
    const double* axc = ax.col(t);
    double* rc = r.col(t);
    for (std::size_t i = 0; i < nloc; ++i) rc[i] = bc[i] - axc[i];
  }
  if (w == 1) return {ortho::global_norm(octx, {r.col(0), nloc})};
  const dense::MatrixView gv = g.block(0, 0, w, w);
  const dense::ConstMatrixView rv = r.block(0, 0, r.rows(), w);
  ortho::block_gram(octx, rv, gv);
  std::vector<double> norms(static_cast<std::size_t>(w));
  for (index_t t = 0; t < w; ++t) {
    norms[static_cast<std::size_t>(t)] = std::sqrt(std::max(0.0, gv(t, t)));
  }
  return norms;
}

/// Deflation: keeps the active columns at positions `keep` (ascending)
/// and compacts their RHS indices, norms, residuals and Gram entries to
/// the front — the survivors' sub-Gram needs no second reduce.
void deflate(const std::vector<index_t>& keep, std::vector<index_t>& active,
             std::vector<double>& norms, dense::Matrix& r, dense::Matrix& g) {
  if (keep.size() == active.size()) return;
  std::vector<index_t> next_active;
  std::vector<double> next_norms;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const index_t from = keep[i];
    const auto to = static_cast<index_t>(i);
    for (std::size_t j = 0; j < keep.size(); ++j) {
      g(to, static_cast<index_t>(j)) = g(from, keep[j]);
    }
    if (from != to) std::copy(r.col(from), r.col(from) + r.rows(), r.col(to));
    next_active.push_back(active[static_cast<std::size_t>(from)]);
    next_norms.push_back(norms[static_cast<std::size_t>(from)]);
  }
  active = std::move(next_active);
  norms = std::move(next_norms);
}

/// The worst column's value of `field` (the first column's bits at k=1).
double worst_of(const std::vector<RhsResult>& cols, double RhsResult::*field) {
  double worst = cols.front().*field;
  for (const RhsResult& rr : cols) worst = std::max(worst, rr.*field);
  return worst;
}

/// One restart cycle's least-squares problem min ||E1 S0 - H Y||:
/// Givens rotations at width 1 (the single-RHS rounding), one
/// Householder reflector per column above (phist's bgmres.m).
class CycleLeastSquares {
 public:
  /// `gamma` seeds the width-1 problem, the bw x bw factor `s0` a wider
  /// one; `m` counts block steps.
  CycleLeastSquares(index_t m, index_t bw, double gamma,
                    dense::ConstMatrixView s0) {
    if (bw == 1) {
      givens_.emplace(m, gamma);
    } else {
      block_.emplace(m * bw, bw, s0);
    }
  }

  void append_column(std::span<const double> h) {
    if (givens_) {
      givens_->append_column(h);
    } else {
      block_->append_column(h);
    }
  }

  /// Minimal residual norm of active column t.
  [[nodiscard]] double residual_norm(index_t t) const {
    return givens_ ? givens_->residual_norm() : block_->residual_norm(t);
  }

  [[nodiscard]] index_t cols() const {
    return givens_ ? givens_->cols() : block_->cols();
  }

  /// Z = Q(:, 0:cols()) Y — gemv at width 1, gemm above.
  void combine(dense::ConstMatrixView q, dense::MatrixView z,
               util::PhaseTimers& timers) const {
    q = q.columns(0, cols());
    if (givens_) {
      const std::vector<double> y = givens_->solve_y();
      timers.start("ortho/small");
      dense::gemv(1.0, q, y, 0.0,
                  {z.col(0), static_cast<std::size_t>(z.rows)});
    } else {
      const dense::Matrix y = block_->solve_y();
      timers.start("ortho/small");
      dense::gemm_nn(1.0, q, y.view(), 0.0, z);
    }
    timers.stop("ortho/small");
  }

 private:
  std::optional<dense::HessenbergLeastSquares> givens_;
  std::optional<dense::BlockHessenbergLeastSquares> block_;
};

}  // namespace

SolveResult sstep_gmres(par::Communicator& comm, const sparse::DistCsr& a,
                        const precond::Preconditioner* m_prec,
                        dense::ConstMatrixView b, dense::MatrixView x,
                        const SStepGmresConfig& cfg) {
  const index_t k = b.cols;
  validate(cfg, k);
  // The scheme runs on bw-wide block steps: m, s and bs scale by the
  // active width.  The first manager is built before any collective so
  // a scheme's own shape rules reject the config identically on every
  // rank (scaling by bw keeps those rules).
  const auto make_scaled_manager = [&cfg](index_t bw) {
    SStepGmresConfig mcfg = cfg;
    mcfg.m = cfg.m * bw;
    mcfg.s = cfg.s * bw;
    mcfg.bs = cfg.bs * bw;
    return make_manager(mcfg);
  };
  std::unique_ptr<ortho::BlockOrthoManager> manager = make_scaled_manager(k);
  index_t manager_bw = k;
  const auto nloc = static_cast<std::size_t>(a.n_local());
  assert(static_cast<std::size_t>(b.rows) == nloc && x.cols == k &&
         static_cast<std::size_t>(x.rows) == nloc);

  SolveResult res;
  res.rhs_results.resize(static_cast<std::size_t>(k));
  const par::CommStats comm_before = comm.stats();
  ortho::OrthoContext octx;
  octx.comm = &comm;
  octx.timers = &res.timers;
  // The autopilot owns breakdown handling: force kThrow so breakdowns
  // surface to the re-base recovery instead of being shift-perturbed
  // (supersedes the configured policy while enabled).
  const bool ap = cfg.autopilot.enabled;
  octx.policy = ap ? ortho::BreakdownPolicy::kThrow : cfg.policy;
  octx.mixed_precision_gram = cfg.mixed_precision_gram;
  octx.inject_breakdown = cfg.inject_chol_breakdown;

  PrecOperator op(a, m_prec);
  // Scale the monomial/Newton recurrences by an operator-norm estimate
  // so the raw MPK vectors stay O(1): without this the monomial basis
  // grows like ||A||^s per panel and the Gram matrices overflow their
  // conditioning long before condition (5) is the binding constraint.
  // (Chebyshev's own gamma already normalizes.)
  const double gamma_scale = cfg.basis != BasisKind::kChebyshev
                                 ? gamma_scale_estimate(comm, a, m_prec)
                                 : 0.0;
  const auto build_basis = [&](index_t s) {
    KrylovBasis kb = make_basis(cfg, s);
    if (gamma_scale > 0.0) kb = kb.with_gamma_scale(gamma_scale);
    return kb;
  };
  KrylovBasis kbasis = build_basis(cfg.s);

  // Autopilot state: the step-size ladder plus the Gram precision in
  // effect.  All transitions are driven by globally-reduced estimates,
  // so every rank holds identical state after every restart.
  const std::vector<index_t> ladder =
      ap ? step_ladder(cfg) : std::vector<index_t>{cfg.s};
  std::size_t rung = ladder.size() - 1;  // index of the configured s
  index_t s_cur = cfg.s;
  bool dd_cur = cfg.mixed_precision_gram;
  int healthy = 0;  // consecutive cycles below kappa_low
  res.autopilot_final_s = s_cur;
  res.autopilot_final_dd = dd_cur;

  // Storage sized for the full width; a deflated cycle uses the leading
  // (m+1)*bw basis columns.
  const index_t m = cfg.m;
  dense::Matrix basis(static_cast<index_t>(nloc), (m + 1) * k);
  dense::Matrix rmat((m + 1) * k, (m + 1) * k);
  dense::Matrix lmat((m + 1) * k, (m + 1) * k);
  dense::Matrix hmat((m + 1) * k, m * k);
  dense::Matrix rres(static_cast<index_t>(nloc), k);
  // Packed apply operand for non-adjacent active columns (after a
  // deflation); allocated on first need.
  dense::Matrix xwork;
  dense::Matrix tmp(static_cast<index_t>(nloc), k);
  dense::Matrix z(static_cast<index_t>(nloc), k);
  dense::Matrix gram(k, k);
  dense::Matrix s0(k, k);

  // Active (not yet deflated) columns by original RHS index, their
  // residual norms (rres / gram hold their residuals / Gram in the same
  // order), and each column's convergence reference.
  std::vector<index_t> active;
  for (index_t t = 0; t < k; ++t) active.push_back(t);
  std::vector<double> ref(static_cast<std::size_t>(k));

  res.timers.start("total");
  std::vector<double> gamma =
      residual_norms(comm, octx, a, b, x, active, rres, xwork, tmp, gram);
  {
    // Reference: the initial-residual norm by default (for a zero guess
    // that IS ||b||, bit-for-bit), or the caller's fixed norm (the
    // warm-start path — a good x0 then starts partway to the target
    // instead of re-normalizing it).
    std::vector<index_t> keep;
    for (index_t t = 0; t < k; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      const bool fixed =
          !cfg.conv_reference.empty() && cfg.conv_reference[ts] > 0.0;
      ref[ts] = fixed ? cfg.conv_reference[ts] : gamma[ts];
      RhsResult& rr = res.rhs_results[ts];
      rr.true_relres = ref[ts] > 0.0 ? gamma[ts] / ref[ts] : 0.0;
      if (gamma[ts] == 0.0 || (fixed && gamma[ts] <= cfg.rtol * ref[ts])) {
        rr.converged = true;
        rr.deflated_at_restart = 0;
      } else {
        keep.push_back(t);
      }
    }
    deflate(keep, active, gamma, rres, gram);
  }
  res.converged = active.empty();

  while (!active.empty() && res.iters < cfg.max_iters &&
         res.restarts < cfg.max_restarts) {
    // Cooperative cancellation / deadline poll, only when a token is
    // installed (zero extra syncs otherwise).  The collective max makes
    // the stop decision identical on every rank even though the flag
    // flips asynchronously, so no rank is left inside a collective.
    if (cfg.cancel != nullptr) {
      const double stop =
          comm.allreduce_max_scalar(cfg.cancel->should_stop() ? 1.0 : 0.0);
      if (stop > 0.0) {
        if (cfg.cancel->cancelled()) {
          res.cancelled = true;
        } else {
          res.deadline_expired = true;
        }
        break;
      }
    }
    const auto bw = static_cast<index_t>(active.size());
    if (manager_bw != bw) {
      manager = make_scaled_manager(bw);
      manager_bw = bw;
    }
    const dense::MatrixView basis_v =
        basis.block(0, 0, basis.rows(), (m + 1) * bw);
    const dense::MatrixView rv = rmat.block(0, 0, (m + 1) * bw, (m + 1) * bw);
    const dense::MatrixView lv = lmat.block(0, 0, (m + 1) * bw, (m + 1) * bw);
    const dense::MatrixView hv = hmat.block(0, 0, (m + 1) * bw, m * bw);
    const dense::MatrixView s0v = s0.block(0, 0, bw, bw);

    // Seed the cycle: block 0 = the active residuals, orthonormalized;
    // R = L = identity seed.
    if (bw == 1) {
      double* q0 = basis.col(0);
      const double* r0 = rres.col(0);
      const double inv = 1.0 / gamma[0];
      for (std::size_t i = 0; i < nloc; ++i) q0[i] = r0[i] * inv;
    } else {
      // CholQR off the boundary's already-reduced Gram: S0 = chol(G),
      // block 0 = R S0^{-1}.  No extra synchronization.  The seed's
      // conditioning is the RHS block's, which no step size changes, so
      // it stays out of the monitor.
      dense::copy(gram.block(0, 0, bw, bw), s0v);
      ortho::chol_factor(octx, s0v, "block GMRES seed");
      (void)octx.take_gram_kappa_peak();
      for (index_t t = 0; t < bw; ++t) {
        std::copy(rres.col(t), rres.col(t) + nloc, basis.col(t));
      }
      ortho::block_scale(octx, s0v, basis_v.columns(0, bw));
    }
    rmat.set_zero();
    lmat.set_zero();
    for (index_t t = 0; t < bw; ++t) rmat(t, t) = 1.0;
    manager->reset(bw);
    CycleLeastSquares ls(m, bw, gamma[0], s0v);

    index_t assembled = 0;  // Hessenberg columns appended so far
    index_t generated = bw; // basis columns stage-1-processed so far
    // Appends the Hessenberg columns the manager has finalized (all
    // columns before nfinal - bw); true when new columns brought every
    // active column's recurrence residual to its target.
    const auto append_final = [&](index_t nfinal) {
      if (nfinal - bw <= assembled) return false;
      res.timers.start("ortho/small");
      assemble_hessenberg(rv, lv, kbasis, s_cur, bw, assembled, nfinal - bw,
                          hv);
      for (index_t c = assembled; c < nfinal - bw; ++c) {
        ls.append_column(std::span<const double>(
            hv.col(c), static_cast<std::size_t>(c + bw + 1)));
      }
      res.timers.stop("ortho/small");
      assembled = nfinal - bw;
      for (index_t t = 0; t < bw; ++t) {
        const double rcol =
            ref[static_cast<std::size_t>(active[static_cast<std::size_t>(t)])];
        if (!(ls.residual_norm(t) <= cfg.rtol * rcol)) return false;
      }
      return true;
    };

    const index_t npanel = m / s_cur;
    double cycle_kappa = 0.0;
    bool cycle_breakdown = false;
    // Basis-level conditioning estimate for the cycle: sqrt of the
    // monitor's Gram estimate (kappa(G) ~ kappa(V)^2).  Computed from
    // the replicated post-reduce factor — identical bits on every rank
    // at any thread count.
    const auto poll_monitor = [&] {
      const double gram_est = octx.take_gram_kappa_peak();
      if (gram_est > 0.0) {
        cycle_kappa = std::max(cycle_kappa, std::sqrt(gram_est));
      }
    };
    try {
      for (index_t p = 0; p < npanel; ++p) {
        const index_t start = p * s_cur * bw;  // panel's MPK input block
        for (index_t t = 0; t < bw; ++t) {
          manager->note_mpk_start(octx, lv, start + t);
        }
        matrix_powers(comm, op, kbasis, basis_v, p * s_cur + 1, s_cur, bw,
                      &res.timers);
        const index_t nfinal = manager->add_panel(octx, basis_v, start + bw,
                                                  s_cur * bw, rv, lv);
        // Count the panel only once its orthogonalization held: a
        // thrown CholeskyBreakdown rolls the cycle back to the last
        // accepted column, excluding the broken panel's columns.
        generated = start + bw + s_cur * bw;
        poll_monitor();
        if (append_final(nfinal)) break;
      }
    } catch (const ortho::CholeskyBreakdown&) {
      // Autopilot recovery: the broken panel's columns are beyond
      // `generated`, so the cycle re-bases from the last accepted
      // column below.  Without the autopilot the breakdown propagates
      // (kThrow semantics unchanged).
      if (!ap) throw;
      cycle_breakdown = true;
      poll_monitor();
    }

    // Flush a partially filled big panel (bs not dividing m, an early
    // inner break, or a cycle cut short by a recovered breakdown).
    index_t nfinal = generated;
    if (!cycle_breakdown) {
      try {
        nfinal = manager->finalize(octx, basis_v, generated, rv, lv);
      } catch (const ortho::CholeskyBreakdown&) {
        if (!ap) throw;
        cycle_breakdown = true;
      }
    }
    if (cycle_breakdown) {
      // Re-base: discard broken state, keep whatever prefix the manager
      // can still finalize, and let the normal correction + restart
      // continue from the last accepted column.
      res.rebase_recoveries += 1;
      nfinal = manager->rebase_after_breakdown(octx, basis_v, generated, rv,
                                               lv);
    }
    poll_monitor();
    append_final(nfinal);

    // Correction: X_active += M^{-1} (Q_{1:assembled} Y).
    if (ls.cols() > 0) {
      const dense::MatrixView zv = z.block(0, 0, z.rows(), bw);
      const dense::MatrixView tv = tmp.block(0, 0, tmp.rows(), bw);
      ls.combine(basis_v, zv, res.timers);
      op.apply_minv_multi(zv, tv, &res.timers);
      for (index_t t = 0; t < bw; ++t) {
        dense::axpy(1.0, std::span<const double>(tv.col(t), nloc),
                    std::span<double>(
                        x.col(active[static_cast<std::size_t>(t)]), nloc));
      }
    }
    res.iters += assembled;
    res.restarts += 1;

    // Restart boundary: the explicit residuals of the corrected iterate
    // (one operator apply + one reduce, which also seed the next cycle).  A
    // column whose recurrence estimate or explicit residual meets its
    // target converges and deflates.
    gamma = residual_norms(comm, octx, a, b, x, active, rres, xwork, tmp, gram);
    std::vector<index_t> keep;
    for (index_t t = 0; t < bw; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      const auto col = static_cast<std::size_t>(active[ts]);
      const double target = cfg.rtol * ref[col];
      RhsResult& rr = res.rhs_results[col];
      rr.iters += assembled / bw;
      rr.relres = ref[col] > 0.0 ? ls.residual_norm(t) / ref[col] : 0.0;
      rr.true_relres = ref[col] > 0.0 ? gamma[ts] / ref[col] : 0.0;
      if (ls.residual_norm(t) <= target || gamma[ts] <= target) {
        rr.converged = true;
        rr.deflated_at_restart = res.restarts;
      } else {
        keep.push_back(t);
      }
    }
    deflate(keep, active, gamma, rres, gram);
    res.converged = active.empty();
    res.relres = worst_of(res.rhs_results, &RhsResult::relres);

    // Conditioning monitor summary (maintained even with the autopilot
    // off — free observability from the Cholesky diagonals).
    res.autopilot_max_kappa = std::max(res.autopilot_max_kappa, cycle_kappa);
    if (ap) {
      // A breakdown before any panel's factor succeeded leaves no
      // diagonal-ratio estimate; record the honest "beyond measurement"
      // value rather than a healthy-looking zero.
      const double kappa_rec =
          (cycle_breakdown && cycle_kappa == 0.0)
              ? std::numeric_limits<double>::infinity()
              : cycle_kappa;
      const auto record = [&](const char* kind, index_t s_after,
                              bool dd_after) {
        res.autopilot_events.push_back(AutopilotEvent{
            res.restarts, kind, kappa_rec, s_cur, s_after, dd_cur, dd_after});
      };
      if (cycle_breakdown) record("rebase", s_cur, dd_cur);
      if (!res.converged) {
        if (cycle_breakdown && assembled == 0 && rung == 0 && dd_cur) {
          // Saturated ladder (s at minimum, dd Gram) and a cycle that
          // accepted nothing: no escalation can make progress.
          throw ortho::CholeskyBreakdown(
              "sstep_gmres: stability autopilot saturated (s at minimum, "
              "double-double Gram) with no columns accepted in the cycle");
        }
        const double high = dd_cur ? kDdKappaHigh : cfg.autopilot.kappa_high;
        if (cycle_breakdown || cycle_kappa > high) {
          healthy = 0;
          if (rung > 0) {
            record("shrink_s", ladder[rung - 1], dd_cur);
            rung -= 1;
            s_cur = ladder[rung];
            kbasis = build_basis(s_cur);
          } else if (!dd_cur) {
            record("escalate_gram", s_cur, true);
            dd_cur = true;
            octx.mixed_precision_gram = true;
          }
        } else if (cycle_kappa < cfg.autopilot.kappa_low &&
                   (dd_cur != cfg.mixed_precision_gram || s_cur != cfg.s)) {
          healthy += 1;
          if (healthy >= cfg.autopilot.patience) {
            healthy = 0;
            if (dd_cur && !cfg.mixed_precision_gram) {
              record("relax_gram", s_cur, false);
              dd_cur = false;
              octx.mixed_precision_gram = false;
            } else if (rung + 1 < ladder.size()) {
              record("grow_s", ladder[rung + 1], dd_cur);
              rung += 1;
              s_cur = ladder[rung];
              kbasis = build_basis(s_cur);
            }
          }
        } else {
          healthy = 0;
        }
      }
      res.autopilot_final_s = s_cur;
      res.autopilot_final_dd = dd_cur;
    }
    if (cfg.on_restart) {
      cfg.on_restart(ProgressEvent{
          res.iters, res.restarts, res.relres,
          worst_of(res.rhs_results, &RhsResult::true_relres), res.converged,
          &res.timers});
    }
  }

  res.timers.stop("total");
  // Final explicit residuals of every column, frozen ones included.
  std::vector<index_t> all(static_cast<std::size_t>(k));
  for (index_t t = 0; t < k; ++t) all[static_cast<std::size_t>(t)] = t;
  const std::vector<double> final_norms =
      residual_norms(comm, octx, a, b, x, all, rres, xwork, tmp, gram);
  for (std::size_t t = 0; t < all.size(); ++t) {
    res.rhs_results[t].true_relres =
        ref[t] > 0.0 ? final_norms[t] / ref[t] : 0.0;
  }
  res.true_relres = worst_of(res.rhs_results, &RhsResult::true_relres);
  res.comm_stats = par::subtract(comm.stats(), comm_before);
  res.cholesky_breakdowns = octx.cholesky_breakdowns;
  res.shift_retries = octx.shift_retries;
  return res;
}

}  // namespace tsbo::krylov
