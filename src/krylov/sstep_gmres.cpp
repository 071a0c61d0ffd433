#include "krylov/sstep_gmres.hpp"

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "dense/givens.hpp"
#include "krylov/hessenberg.hpp"
#include "util/aligned.hpp"

#include <cassert>
#include <cmath>
#include <limits>
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

void validate(const SStepGmresConfig& cfg) {
  if (cfg.s <= 0 || cfg.m <= 0 || cfg.m % cfg.s != 0) {
    throw std::invalid_argument("sstep_gmres: s must divide m");
  }
  if ((cfg.basis == BasisKind::kNewton || cfg.basis == BasisKind::kChebyshev) &&
      !(cfg.lambda_max > cfg.lambda_min)) {
    throw std::invalid_argument(
        "sstep_gmres: Newton/Chebyshev bases need a spectral interval");
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

void residual(par::Communicator& comm, const sparse::DistCsr& a,
              std::span<const double> b, std::span<const double> x,
              std::span<double> r, std::span<double> tmp,
              util::PhaseTimers* timers) {
  a.spmv(comm, x, tmp, timers);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - tmp[i];
}

}  // namespace

SolveResult sstep_gmres(par::Communicator& comm, const sparse::DistCsr& a,
                        const precond::Preconditioner* m_prec,
                        std::span<const double> b, std::span<double> x,
                        const SStepGmresConfig& cfg) {
  validate(cfg);
  // Built before any collective so a scheme's own shape rules reject
  // the config identically on every rank.
  std::unique_ptr<ortho::BlockOrthoManager> manager = make_manager(cfg);
  const auto nloc = static_cast<std::size_t>(a.n_local());
  assert(b.size() == nloc && x.size() == nloc);

  SolveResult res;
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
  double gamma_scale = 0.0;
  if (cfg.basis != BasisKind::kChebyshev) {
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
      // With a (roughly diagonal-normalizing) preconditioner the
      // operator is closer to D^{-1}A; estimate accordingly.
      est = std::max(est, m_prec != nullptr && diag > 0.0 ? row / diag : row);
    }
    gamma_scale = comm.allreduce_max_scalar(est);
  }
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

  dense::Matrix basis(static_cast<index_t>(nloc), cfg.m + 1);
  dense::Matrix rmat(cfg.m + 1, cfg.m + 1);
  dense::Matrix lmat(cfg.m + 1, cfg.m + 1);
  dense::Matrix hmat(cfg.m + 1, cfg.m);
  util::aligned_vector<double> r(nloc), tmp(nloc), z(nloc);

  res.timers.start("total");
  residual(comm, a, b, x, r, tmp, &res.timers);
  const double gamma0 = ortho::global_norm(octx, r);
  double gamma = gamma0;
  if (gamma0 == 0.0) res.converged = true;
  // Convergence reference: the initial-residual norm by default (for a
  // zero guess that IS ||b||, bit-for-bit), or the caller's fixed norm
  // (the warm-start path — a good x0 then starts partway to the
  // target instead of re-normalizing it).
  const double ref = cfg.conv_reference > 0.0 ? cfg.conv_reference : gamma0;
  if (cfg.conv_reference > 0.0 && gamma0 <= cfg.rtol * ref) {
    res.converged = true;
  }

  while (!res.converged && res.iters < cfg.max_iters &&
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
    // Seed the cycle: column 0 = r / gamma; R = L = identity seed.
    {
      double* q0 = basis.col(0);
      const double inv = 1.0 / gamma;
      for (std::size_t i = 0; i < nloc; ++i) q0[i] = r[i] * inv;
    }
    rmat.set_zero();
    lmat.set_zero();
    rmat(0, 0) = 1.0;
    manager->reset();
    dense::HessenbergLeastSquares ls(cfg.m, gamma);

    index_t assembled = 0;  // Hessenberg columns appended so far
    index_t generated = 1;  // basis columns stage-1-processed so far
    bool inner_converged = false;

    const index_t npanel = cfg.m / s_cur;
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
        const index_t start = p * s_cur;
        manager->note_mpk_start(octx, lmat.view(), start);
        matrix_powers(comm, op, kbasis, basis.view(), start + 1, s_cur,
                      &res.timers);
        const index_t nfinal = manager->add_panel(
            octx, basis.view(), start + 1, s_cur, rmat.view(), lmat.view());
        // Count the panel only once its orthogonalization held: a
        // thrown CholeskyBreakdown rolls the cycle back to the last
        // accepted column, excluding the broken panel's columns.
        generated = start + 1 + s_cur;
        poll_monitor();

        if (nfinal - 1 > assembled) {
          res.timers.start("ortho/small");
          assemble_hessenberg(rmat.view(), lmat.view(), kbasis, s_cur,
                              assembled, nfinal - 1, hmat.view());
          for (index_t k = assembled; k < nfinal - 1; ++k) {
            ls.append_column(std::span<const double>(
                hmat.col(k), static_cast<std::size_t>(k) + 2));
          }
          res.timers.stop("ortho/small");
          assembled = nfinal - 1;
          if (ls.residual_norm() <= cfg.rtol * ref) {
            inner_converged = true;
            break;
          }
        }
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
        nfinal = manager->finalize(octx, basis.view(), generated, rmat.view(),
                                   lmat.view());
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
      nfinal = manager->rebase_after_breakdown(octx, basis.view(), generated,
                                               rmat.view(), lmat.view());
    }
    poll_monitor();
    if (nfinal - 1 > assembled) {
      res.timers.start("ortho/small");
      assemble_hessenberg(rmat.view(), lmat.view(), kbasis, s_cur, assembled,
                          nfinal - 1, hmat.view());
      for (index_t k = assembled; k < nfinal - 1; ++k) {
        ls.append_column(std::span<const double>(
            hmat.col(k), static_cast<std::size_t>(k) + 2));
      }
      res.timers.stop("ortho/small");
      assembled = nfinal - 1;
      if (ls.residual_norm() <= cfg.rtol * ref) inner_converged = true;
    }

    // Correction: x += M^{-1} (Q_{1:assembled} y).
    const index_t used = ls.cols();
    if (used > 0) {
      const std::vector<double> y = ls.solve_y();
      res.timers.start("ortho/small");
      dense::gemv(1.0, basis.view().columns(0, used), y, 0.0, z);
      res.timers.stop("ortho/small");
      op.apply_minv(z, tmp, &res.timers);
      dense::axpy(1.0, tmp, x);
    }
    res.iters += assembled;
    res.restarts += 1;
    res.relres = ref > 0.0 ? ls.residual_norm() / ref : 0.0;

    residual(comm, a, b, x, r, tmp, &res.timers);
    gamma = ortho::global_norm(octx, r);
    if (inner_converged || gamma <= cfg.rtol * ref) res.converged = true;

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
      cfg.on_restart(ProgressEvent{res.iters, res.restarts, res.relres,
                                   ref > 0.0 ? gamma / ref : 0.0,
                                   res.converged, &res.timers});
    }
  }

  res.timers.stop("total");
  residual(comm, a, b, x, r, tmp, &res.timers);
  const double final_norm = ortho::global_norm(octx, r);
  res.true_relres = ref > 0.0 ? final_norm / ref : 0.0;
  res.comm_stats = par::subtract(comm.stats(), comm_before);
  res.cholesky_breakdowns = octx.cholesky_breakdowns;
  res.shift_retries = octx.shift_retries;
  return res;
}

}  // namespace tsbo::krylov
