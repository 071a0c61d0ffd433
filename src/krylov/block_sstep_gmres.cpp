#include "krylov/block_sstep_gmres.hpp"

#include "dense/blas1.hpp"
#include "dense/blas3.hpp"
#include "dense/block_householder.hpp"
#include "krylov/hessenberg.hpp"
#include "util/aligned.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tsbo::krylov {

namespace {

void validate(const BlockSStepGmresConfig& cfg, index_t k) {
  const SStepGmresConfig& c = cfg.base;
  if (c.s <= 0 || c.m <= 0 || c.m % c.s != 0) {
    throw std::invalid_argument("block_sstep_gmres: s must divide m");
  }
  // The scheme's own shape rules (two-stage: s <= bs <= m, s | bs)
  // reject the config here, before any collective; the managers the
  // cycles build scale m, s and bs alike, which keeps those rules.
  (void)make_manager(c);
  if ((c.basis == BasisKind::kNewton || c.basis == BasisKind::kChebyshev) &&
      !(c.lambda_max > c.lambda_min)) {
    throw std::invalid_argument(
        "block_sstep_gmres: Newton/Chebyshev bases need a spectral interval");
  }
  if (!cfg.conv_reference.empty() &&
      static_cast<index_t>(cfg.conv_reference.size()) != k) {
    throw std::invalid_argument(
        "block_sstep_gmres: conv_reference must hold one norm per RHS");
  }
}

KrylovBasis make_basis(const SStepGmresConfig& cfg) {
  switch (cfg.basis) {
    case BasisKind::kMonomial:
      return KrylovBasis::monomial(cfg.m);
    case BasisKind::kNewton:
      return KrylovBasis::newton(cfg.m, cfg.s, cfg.lambda_min, cfg.lambda_max);
    case BasisKind::kChebyshev:
      return KrylovBasis::chebyshev(cfg.m, cfg.s, cfg.lambda_min,
                                    cfg.lambda_max);
  }
  throw std::invalid_argument("block_sstep_gmres: unknown basis");
}

/// Operator-norm estimate for the monomial/Newton gamma scaling —
/// identical to the single-RHS solver's (one allreduce).
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

}  // namespace

SolveResult block_sstep_gmres(par::Communicator& comm,
                              const sparse::DistCsr& a,
                              const precond::Preconditioner* m_prec,
                              dense::ConstMatrixView b_rhs,
                              dense::MatrixView x,
                              const BlockSStepGmresConfig& cfg) {
  const index_t k = b_rhs.cols;
  const auto nloc = static_cast<std::size_t>(a.n_local());
  assert(static_cast<std::size_t>(b_rhs.rows) == nloc && x.cols == k &&
         static_cast<std::size_t>(x.rows) == nloc);
  validate(cfg, k);

  if (k == 1) {
    // Single RHS: the block machinery would round differently
    // (Householder-on-H vs Givens, serial spmm vs gather spmv); the
    // determinism contract pins k=1 bitwise to the existing solver, so
    // delegate outright.
    SStepGmresConfig scfg = cfg.base;
    if (!cfg.conv_reference.empty()) scfg.conv_reference = cfg.conv_reference[0];
    SolveResult res = sstep_gmres(
        comm, a, m_prec, std::span<const double>(b_rhs.col(0), nloc),
        std::span<double>(x.col(0), nloc), scfg);
    RhsResult rr;
    rr.converged = res.converged;
    rr.iters = res.iters;
    rr.relres = res.relres;
    rr.true_relres = res.true_relres;
    res.rhs_results.assign(1, rr);
    return res;
  }

  const SStepGmresConfig& base = cfg.base;
  SolveResult res;
  res.rhs_results.resize(static_cast<std::size_t>(k));
  const par::CommStats comm_before = comm.stats();
  ortho::OrthoContext octx;
  octx.comm = &comm;
  octx.timers = &res.timers;
  octx.policy = base.policy;
  octx.mixed_precision_gram = base.mixed_precision_gram;
  octx.inject_breakdown = base.inject_chol_breakdown;

  PrecOperator op(a, m_prec);
  double gamma_scale = 0.0;
  if (base.basis != BasisKind::kChebyshev) {
    gamma_scale = gamma_scale_estimate(comm, a, m_prec);
  }
  KrylovBasis kbasis = make_basis(base);
  if (gamma_scale > 0.0) kbasis = kbasis.with_gamma_scale(gamma_scale);

  const index_t m = base.m;
  const index_t s = base.s;
  // Flat storage sized for the full block width; deflated cycles use
  // the leading (m+1)*b_act columns.
  dense::Matrix basis(static_cast<index_t>(nloc), (m + 1) * k);
  dense::Matrix rmat((m + 1) * k, (m + 1) * k);
  dense::Matrix lmat((m + 1) * k, (m + 1) * k);
  dense::Matrix hmat((m + 1) * k, m * k);
  dense::Matrix ract(static_cast<index_t>(nloc), k);
  dense::Matrix xact(static_cast<index_t>(nloc), k);
  dense::Matrix tmpact(static_cast<index_t>(nloc), k);
  dense::Matrix zact(static_cast<index_t>(nloc), k);
  dense::Matrix gmat(k, k);
  dense::Matrix s0(k, k);

  // Active (not yet deflated) columns, by original RHS index.
  std::vector<index_t> active;
  active.reserve(static_cast<std::size_t>(k));
  for (index_t t = 0; t < k; ++t) active.push_back(t);
  std::vector<double> ref(static_cast<std::size_t>(k), 0.0);
  bool have_refs = false;

  std::unique_ptr<ortho::BlockOrthoManager> manager;
  index_t manager_b = 0;

  res.timers.start("total");
  while (true) {
    if (base.cancel != nullptr) {
      const double stop =
          comm.allreduce_max_scalar(base.cancel->should_stop() ? 1.0 : 0.0);
      if (stop > 0.0) {
        if (base.cancel->cancelled()) {
          res.cancelled = true;
        } else {
          res.deadline_expired = true;
        }
        break;
      }
    }
    const index_t b_act = static_cast<index_t>(active.size());

    // --- Restart boundary: residual block, Gram, deflation, seed -----
    // One spmm (one halo exchange) + ONE Gram reduce serve the
    // explicit residual norms, the deflation decision, AND the seed
    // CholQR factor — the same single-synchronization boundary as the
    // single-RHS solver's residual-norm reduce.
    for (index_t t = 0; t < b_act; ++t) {
      std::copy(x.col(active[static_cast<std::size_t>(t)]),
                x.col(active[static_cast<std::size_t>(t)]) + nloc,
                xact.col(t));
    }
    a.spmm(comm, xact.block(0, 0, xact.rows(), b_act),
           tmpact.block(0, 0, tmpact.rows(), b_act), &res.timers);
    for (index_t t = 0; t < b_act; ++t) {
      const double* bc = b_rhs.col(active[static_cast<std::size_t>(t)]);
      const double* ax = tmpact.col(t);
      double* rc = ract.col(t);
      for (std::size_t i = 0; i < nloc; ++i) rc[i] = bc[i] - ax[i];
    }
    dense::MatrixView g = gmat.block(0, 0, b_act, b_act);
    ortho::block_dot(octx, ract.block(0, 0, ract.rows(), b_act),
                     ract.block(0, 0, ract.rows(), b_act), g);
    if (!have_refs) {
      for (index_t t = 0; t < b_act; ++t) {
        const index_t col = active[static_cast<std::size_t>(t)];
        ref[static_cast<std::size_t>(col)] =
            cfg.conv_reference.empty()
                ? std::sqrt(std::max(0.0, g(t, t)))
                : cfg.conv_reference[static_cast<std::size_t>(col)];
      }
      have_refs = true;
    }
    // Deflation: freeze converged columns; survivors keep their
    // sub-Gram (no second reduce).
    std::vector<index_t> keep;
    keep.reserve(static_cast<std::size_t>(b_act));
    for (index_t t = 0; t < b_act; ++t) {
      const index_t col = active[static_cast<std::size_t>(t)];
      const double gamma = std::sqrt(std::max(0.0, g(t, t)));
      RhsResult& rr = res.rhs_results[static_cast<std::size_t>(col)];
      const double rcol = ref[static_cast<std::size_t>(col)];
      rr.relres = rcol > 0.0 ? gamma / rcol : 0.0;
      if (gamma <= base.rtol * rcol) {
        rr.converged = true;
        rr.deflated_at_restart = res.restarts;
      } else {
        keep.push_back(t);
      }
    }
    if (keep.size() != active.size()) {
      std::vector<index_t> next;
      next.reserve(keep.size());
      for (std::size_t i = 0; i < keep.size(); ++i) {
        for (std::size_t j = 0; j < keep.size(); ++j) {
          gmat(static_cast<index_t>(i), static_cast<index_t>(j)) =
              g(keep[i], keep[j]);
        }
        if (keep[i] != static_cast<index_t>(i)) {
          std::copy(ract.col(keep[i]), ract.col(keep[i]) + nloc,
                    ract.col(static_cast<index_t>(i)));
        }
        next.push_back(active[static_cast<std::size_t>(keep[i])]);
      }
      active = std::move(next);
    }
    if (active.empty()) {
      res.converged = true;
      break;
    }
    if (res.iters >= base.max_iters || res.restarts >= base.max_restarts) {
      break;
    }
    const index_t bw = static_cast<index_t>(active.size());

    // Seed CholQR off the already-reduced Gram: S0 = chol(G), basis
    // block 0 = R0 S0^{-1}.  No extra synchronization.
    dense::copy(gmat.block(0, 0, bw, bw), s0.block(0, 0, bw, bw));
    dense::MatrixView s0v = s0.block(0, 0, bw, bw);
    ortho::chol_factor(octx, s0v, "block GMRES seed");
    for (index_t t = 0; t < bw; ++t) {
      std::copy(ract.col(t), ract.col(t) + nloc, basis.col(t));
    }
    dense::MatrixView basis_v = basis.block(0, 0, basis.rows(), (m + 1) * bw);
    ortho::block_scale(octx, s0v, basis_v.columns(0, bw));

    if (manager == nullptr || manager_b != bw) {
      SStepGmresConfig mcfg = base;
      mcfg.m = m * bw;
      mcfg.s = s * bw;
      mcfg.bs = base.bs * bw;
      manager = make_manager(mcfg);
      manager_b = bw;
    }
    manager->reset_cycle(bw);

    rmat.set_zero();
    lmat.set_zero();
    for (index_t t = 0; t < bw; ++t) rmat(t, t) = 1.0;
    dense::MatrixView rv = rmat.block(0, 0, (m + 1) * bw, (m + 1) * bw);
    dense::MatrixView lv = lmat.block(0, 0, (m + 1) * bw, (m + 1) * bw);
    dense::MatrixView hv = hmat.block(0, 0, (m + 1) * bw, m * bw);
    dense::BlockHessenbergLeastSquares ls(m * bw, bw, s0v);

    index_t assembled = 0;  // flat Hessenberg columns appended
    index_t generated = bw;
    bool inner_converged = false;
    const auto all_below_tol = [&] {
      for (index_t t = 0; t < bw; ++t) {
        const double rcol = ref[static_cast<std::size_t>(
            active[static_cast<std::size_t>(t)])];
        if (!(ls.residual_norm(t) <= base.rtol * rcol)) return false;
      }
      return true;
    };
    const auto append_new_columns = [&](index_t nfinal) {
      if (nfinal - bw <= assembled) return;
      res.timers.start("ortho/small");
      assemble_hessenberg_block(rv, lv, kbasis, s, bw, assembled, nfinal - bw,
                                hv);
      for (index_t c = assembled; c < nfinal - bw; ++c) {
        ls.append_column(std::span<const double>(
            hv.col(c), static_cast<std::size_t>(c + bw + 1)));
      }
      res.timers.stop("ortho/small");
      assembled = nfinal - bw;
    };

    const index_t npanel = m / s;
    for (index_t p = 0; p < npanel; ++p) {
      const index_t start_flat = p * s * bw;
      for (index_t t = 0; t < bw; ++t) {
        manager->note_mpk_start(octx, lv, start_flat + t);
      }
      matrix_powers_block(comm, op, kbasis, basis_v, p * s + 1, s, bw,
                          &res.timers);
      const index_t nfinal = manager->add_panel(
          octx, basis_v, start_flat + bw, s * bw, rv, lv);
      generated = start_flat + bw + s * bw;
      append_new_columns(nfinal);
      if (assembled > 0 && all_below_tol()) {
        inner_converged = true;
        break;
      }
    }
    // Flush a partially filled big panel (bs not dividing m, or an
    // early inner break) so the correction sees every column.
    {
      const index_t nfinal =
          manager->finalize(octx, basis_v, generated, rv, lv);
      append_new_columns(nfinal);
    }
    (void)inner_converged;  // the boundary pass re-detects convergence

    // Correction: X_active += M^{-1} (Q_{1:assembled} Y).
    const index_t used = ls.cols();
    if (used > 0) {
      const dense::Matrix y = ls.solve_y();
      res.timers.start("ortho/small");
      dense::gemm_nn(1.0, basis_v.columns(0, used), y.view(), 0.0,
                     zact.block(0, 0, zact.rows(), bw));
      res.timers.stop("ortho/small");
      op.apply_minv_multi(zact.block(0, 0, zact.rows(), bw),
                          tmpact.block(0, 0, tmpact.rows(), bw), &res.timers);
      for (index_t t = 0; t < bw; ++t) {
        dense::axpy(1.0,
                    std::span<const double>(tmpact.col(t), nloc),
                    std::span<double>(x.col(active[static_cast<std::size_t>(t)]),
                                      nloc));
      }
    }
    res.iters += assembled;
    res.restarts += 1;
    double worst = 0.0;
    for (index_t t = 0; t < bw; ++t) {
      const index_t col = active[static_cast<std::size_t>(t)];
      RhsResult& rr = res.rhs_results[static_cast<std::size_t>(col)];
      rr.iters += assembled / bw;
      const double rcol = ref[static_cast<std::size_t>(col)];
      rr.relres = rcol > 0.0 ? ls.residual_norm(t) / rcol : 0.0;
      worst = std::max(worst, rr.relres);
    }
    res.relres = worst;
    if (base.on_restart) {
      base.on_restart(ProgressEvent{res.iters, res.restarts, res.relres, worst,
                                    res.converged, &res.timers});
    }
  }
  res.timers.stop("total");

  // Final explicit residuals for EVERY column (frozen ones included) —
  // one spmm + one Gram reduce, mirroring the single-RHS exit path.
  a.spmm(comm, x, tmpact.block(0, 0, tmpact.rows(), k), &res.timers);
  for (index_t t = 0; t < k; ++t) {
    const double* bc = b_rhs.col(t);
    const double* ax = tmpact.col(t);
    double* rc = ract.col(t);
    for (std::size_t i = 0; i < nloc; ++i) rc[i] = bc[i] - ax[i];
  }
  ortho::block_dot(octx, ract.view(), ract.view(), gmat.view());
  double worst_true = 0.0;
  double worst_rel = 0.0;
  for (index_t t = 0; t < k; ++t) {
    RhsResult& rr = res.rhs_results[static_cast<std::size_t>(t)];
    const double norm = std::sqrt(std::max(0.0, gmat(t, t)));
    const double rcol = ref[static_cast<std::size_t>(t)];
    rr.true_relres = rcol > 0.0 ? norm / rcol : 0.0;
    worst_true = std::max(worst_true, rr.true_relres);
    worst_rel = std::max(worst_rel, rr.relres);
  }
  res.true_relres = worst_true;
  res.relres = worst_rel;
  res.comm_stats = par::subtract(comm.stats(), comm_before);
  res.cholesky_breakdowns = octx.cholesky_breakdowns;
  res.shift_retries = octx.shift_retries;
  return res;
}

}  // namespace tsbo::krylov
