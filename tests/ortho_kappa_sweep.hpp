#pragma once
// Shared kappa-sweep harness for the registered s-step ortho schemes.
//
// Drives one scheme, named by its ortho-registry key, over glued panels
// of prescribed condition number through the BlockOrthoManager
// interface — the same note_mpk_start / add_panel / finalize loop the
// solver runs — or drives single-pass BCGS-PIP (the two-stage scheme's
// stage 1, not a scheme of its own) panel by panel over the same glued
// matrix, and reports the three facts the stability story needs:
// whether the Gram Cholesky broke down (hard-failure policy), the final
// orthogonality error of the accepted columns, and what the
// conditioning monitor estimated along the way.  test_dd.cpp sweeps
// every scheme through this to pin each one's stability boundary
// against the paper's conditions (1)/(5)/(9).

#include "api/options.hpp"
#include "dense/svd.hpp"
#include "krylov/sstep_gmres.hpp"
#include "ortho/manager.hpp"
#include "ortho/multivector.hpp"
#include "synth/synthetic.hpp"

#include <cmath>
#include <string>

namespace tsbo::test {

struct KappaSweepResult {
  bool breakdown = false;     ///< CholeskyBreakdown under kThrow
  double ortho_error = 0.0;   ///< ||I - Q^T Q|| over the accepted columns
  double monitor_kappa = 0.0; ///< peak basis-kappa estimate (0 = no Cholesky)
};

struct KappaSweepSpec {
  dense::index_t n = 600;
  dense::index_t s = 5;
  dense::index_t bs = 10;
  int panels = 4;
  bool dd_gram = false;
  std::uint64_t seed = 7;
};

/// Orthogonalizes glued panels of condition number `kappa` (behind a
/// random unit seed column) under the hard-failure breakdown policy.
/// `orthogonalize(ctx, basis, r, l)` processes columns [1, m] in panels
/// of spec.s and returns the number of accepted final columns.
template <typename Orthogonalize>
KappaSweepResult sweep_glued(double kappa, const KappaSweepSpec& spec,
                             Orthogonalize&& orthogonalize) {
  using dense::index_t;
  using dense::Matrix;

  const index_t m = spec.s * spec.panels;
  synth::GluedSpec glue;
  glue.n = spec.n;
  glue.panels = spec.panels;
  glue.panel_cols = spec.s;
  glue.kappa_panel = kappa;
  glue.growth = 1.0;
  const Matrix vpanels = synth::glued(glue, spec.seed);

  Matrix basis(spec.n, m + 1);
  {
    const Matrix q0 = synth::random_orthonormal(spec.n, 1, spec.seed + 1);
    dense::copy(q0.view(), basis.view().columns(0, 1));
    dense::copy(vpanels.view(), basis.view().columns(1, m));
  }
  Matrix r(m + 1, m + 1), l(m + 1, m + 1);
  r(0, 0) = 1.0;

  ortho::OrthoContext ctx;
  ctx.policy = ortho::BreakdownPolicy::kThrow;
  ctx.mixed_precision_gram = spec.dd_gram;

  KappaSweepResult out;
  index_t accepted = 1;
  try {
    accepted = orthogonalize(ctx, basis.view(), r.view(), l.view());
  } catch (const ortho::CholeskyBreakdown&) {
    out.breakdown = true;
  }
  out.monitor_kappa = std::sqrt(ctx.take_gram_kappa_peak());
  if (!out.breakdown) {
    out.ortho_error =
        dense::orthogonality_error(basis.view().columns(0, accepted));
  }
  return out;
}

/// Runs `scheme` (an ortho-registry key) through its BlockOrthoManager.
inline KappaSweepResult kappa_sweep(const std::string& scheme, double kappa,
                                    const KappaSweepSpec& spec = {}) {
  using dense::index_t;

  const index_t m = spec.s * spec.panels;
  api::SolverOptions opts = api::SolverOptions::parse(
      "solver=sstep ortho=" + scheme + " s=" + std::to_string(spec.s) +
      " bs=" + std::to_string(spec.bs) + " m=" + std::to_string(m));
  const krylov::SStepGmresConfig cfg = opts.sstep_config();
  auto mgr = krylov::make_manager(cfg);
  mgr->reset();
  return sweep_glued(kappa, spec,
                     [&](ortho::OrthoContext& ctx, dense::MatrixView basis,
                         dense::MatrixView r, dense::MatrixView l) {
                       for (index_t q0 = 1; q0 < m + 1; q0 += spec.s) {
                         mgr->note_mpk_start(ctx, l, q0 - 1);
                         mgr->add_panel(ctx, basis, q0, spec.s, r, l);
                       }
                       return mgr->finalize(ctx, basis, m + 1, r, l);
                     });
}

/// Runs single-pass BCGS-PIP -- the two-stage scheme's stage 1 -- on
/// each panel against every earlier column.
inline KappaSweepResult bcgs_pip_sweep(double kappa,
                                       const KappaSweepSpec& spec = {}) {
  using dense::index_t;

  const index_t m = spec.s * spec.panels;
  return sweep_glued(kappa, spec,
                     [&](ortho::OrthoContext& ctx, dense::MatrixView basis,
                         dense::MatrixView r, dense::MatrixView) {
                       for (index_t q0 = 1; q0 < m + 1; q0 += spec.s) {
                         ortho::bcgs_pip(ctx, basis.columns(0, q0),
                                         basis.columns(q0, spec.s),
                                         r.block(0, q0, q0, spec.s),
                                         r.block(q0, q0, spec.s, spec.s));
                       }
                       return m + 1;
                     });
}

}  // namespace tsbo::test
