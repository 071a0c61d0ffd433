#pragma once
// s-step (communication-avoiding) GMRES — paper Fig. 1 — with pluggable
// block orthogonalization (paper Sections IV-V), for a block of k
// right-hand sides; one right-hand side is the width-1 block.
//
// Per outer block: the matrix-powers kernel generates s new basis
// blocks (standard MPK: s sequential preconditioned SpMVs), then the
// configured BlockOrthoManager orthogonalizes them.  The Hessenberg
// matrix is assembled from the accumulated R/L coefficient matrices
// (H L = R-shifted; see hessenberg.hpp) for every column the manager
// has finalized, and convergence is checked at that granularity:
// every s steps for the one-stage schemes, every bs steps for the
// two-stage scheme — reproducing the paper's iteration-count rounding
// (Table III: 60251 / 60255 / 60300).
//
// Block GMRES (phist's bgmres.m): the basis interleaves the bw active
// right-hand sides — flat column c = j*bw + t carries RHS t's part of
// block step j — so a panel is s*bw flat columns wide and the manager
// runs on m*bw / s*bw / bs*bw flat columns.  The synchronization count
// per outer iteration does not depend on the width (panels get wider,
// not more numerous), and every operator application is ONE halo
// exchange for all bw columns.  The restart seed is the CholQR of the
// active residual block; its factor S0 forms the least-squares
// right-hand side E1 S0, solved by one Householder reflector per column.
//
// Every width shares one operator path: each block step is one
// preconditioner apply_multi plus one DistCsr::apply (PrecOperator),
// whose column t is bitwise the one-column apply of column t.  Width 1
// keeps its own small dense arithmetic: one norm reduce and a
// reciprocal scale at the restart boundary, Givens rotations for the
// least squares and gemv for the correction.  Results are
// bitwise-reproducible across thread counts and stable across rank
// counts at every width.
//
// Convergence, per RHS column: the recurrence estimate or the explicit
// residual recomputed at the restart boundary reaches rtol * ref.  A
// converged column is DEFLATED at that boundary — its solution column
// freezes and the next cycle restarts with a narrower block — so one
// hard RHS cannot force converged ones to keep iterating.
//
// The stability autopilot and the conditioning monitor cover every
// width: panel kappa estimates, the step-size ladder (s | bs kept),
// the double-double Gram escalation and the re-base after a
// CholeskyBreakdown all act on the bw-wide panels.

#include "krylov/gmres.hpp"
#include "krylov/matrix_powers.hpp"
#include "krylov/solver.hpp"
#include "ortho/manager.hpp"

#include <functional>
#include <memory>
#include <vector>

namespace tsbo::krylov {

struct SStepGmresConfig;

/// Builds the block-orthogonalization manager for one solve.
using ManagerFactory = std::function<std::unique_ptr<ortho::BlockOrthoManager>(
    const SStepGmresConfig&)>;

/// The paper's two-stage manager (Fig. 5) for the config's step sizes —
/// the default ManagerFactory.  Throws std::invalid_argument unless
/// s <= bs <= m with s | bs.
std::unique_ptr<ortho::BlockOrthoManager> two_stage_manager(
    const SStepGmresConfig& cfg);

struct SStepGmresConfig {
  index_t m = 60;  ///< restart length; must be a multiple of s
  index_t s = 5;   ///< step size (paper's conservative default)
  index_t bs = 60; ///< two-stage second step size (s <= bs <= m, s | bs)

  BasisKind basis = BasisKind::kMonomial;
  /// Spectral interval for Newton/Chebyshev bases (ignored for
  /// monomial).
  double lambda_min = 0.0;
  double lambda_max = 0.0;

  double rtol = 1e-6;
  /// Convergence reference norms, one per RHS column.  Empty = each
  /// column relative to its own ||b - A x0|| (the classic criterion);
  /// otherwise one fixed norm per column, used where > 0 (see
  /// GmresConfig::conv_reference — the warm-start path).
  std::vector<double> conv_reference;
  long max_iters = 1000000;
  int max_restarts = 1000000;
  ortho::BreakdownPolicy policy = ortho::BreakdownPolicy::kShift;
  bool mixed_precision_gram = false;  ///< double-double Gram extension

  /// Stability autopilot (docs/algorithms.md "Stability autopilot").
  /// When enabled, the solver polls the ortho layer's per-panel Gram
  /// conditioning monitor (OrthoContext::take_gram_kappa_peak; sqrt of
  /// the Gram estimate lower-bounds the basis kappa the paper's
  /// conditions (1)/(5)/(9) constrain) and, at each restart boundary,
  /// walks a policy ladder: shrink s toward s_min while the estimate
  /// exceeds kappa_high, then escalate the Gram to double-double; relax
  /// one rung (dd first, then grow s back toward the configured s)
  /// after `patience` consecutive cycles below kappa_low.  A
  /// CholeskyBreakdown mid-cycle is caught and the cycle re-based from
  /// the last accepted column (BlockOrthoManager::
  /// rebase_after_breakdown) instead of aborting — the breakdown
  /// policy is forced to kThrow internally so breakdowns surface to
  /// the autopilot rather than being shift-perturbed.  All inputs are
  /// globally-reduced quantities: decisions are bitwise-deterministic
  /// at any rank x thread count.
  struct Autopilot {
    bool enabled = false;
    /// Basis-kappa estimate above which the policy escalates a rung.
    /// Default sits an order of magnitude inside the eps^{-1/2} ~ 6.7e7
    /// plain-double cliff, so escalation fires before breakdown does.
    double kappa_high = 1e7;
    /// Estimate below which a cycle counts as healthy.
    double kappa_low = 1e5;
    index_t s_min = 1;  ///< smallest step size the ladder may shrink to
    int patience = 2;   ///< healthy cycles required before relaxing
  };
  Autopilot autopilot;

  /// Deterministic fault-injection seam, forwarded to
  /// OrthoContext::inject_breakdown (tests only): called once per Gram
  /// Cholesky with the global attempt ordinal; return true to force
  /// that factorization to report indefinite.
  std::function<bool(long)> inject_chol_breakdown;

  /// Optional per-restart observer (see solver.hpp).
  ProgressCallback on_restart;

  /// Cooperative cancellation: when non-null, polled at every restart
  /// boundary through a collective max-reduce (all ranks take the same
  /// exit; adds one sync per restart only when installed).  On stop the
  /// result carries cancelled / deadline_expired and the best iterate.
  const par::CancelToken* cancel = nullptr;

  /// The block-orthogonalization scheme: make_manager() calls this once
  /// per solve.  The api ortho registry sets it for every scheme name;
  /// the default is the paper's two-stage scheme.
  ManagerFactory manager_factory = two_stage_manager;
};

/// Solves A M^{-1} U = B, X += M^{-1} U for the k = b.cols right-hand
/// sides in `b` from the initial guesses in `x` (rank-local row blocks,
/// column-major).  Collective over `comm`.  SolveResult::rhs_results
/// holds one entry per column; the scalar fields aggregate them.
SolveResult sstep_gmres(par::Communicator& comm, const sparse::DistCsr& a,
                        const precond::Preconditioner* m_prec,
                        dense::ConstMatrixView b, dense::MatrixView x,
                        const SStepGmresConfig& cfg);

/// Builds the manager the config's factory names (exposed for
/// tests/benches); throws std::invalid_argument when the factory
/// rejects the config or returns null.
std::unique_ptr<ortho::BlockOrthoManager> make_manager(
    const SStepGmresConfig& cfg);

}  // namespace tsbo::krylov
