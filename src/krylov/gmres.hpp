#pragma once
// Standard restarted GMRES (Saad/Schultz) — the paper's baseline
// "GMRES + CGS2" (Table III column 1).
//
// Right-preconditioned, restarted every m steps, one CGS2
// orthogonalization per step (3 global reduces: two projection passes
// plus the norm).  Convergence is declared from the Givens residual
// recurrence, checked every step — which is why the paper's standard
// GMRES iteration counts are exact (60251) while the s-step variants
// round up to panel boundaries.

#include "krylov/matrix_powers.hpp"
#include "krylov/solver.hpp"

#include <span>

namespace tsbo::krylov {

struct GmresConfig {
  index_t m = 60;          ///< restart length (paper uses 60)
  double rtol = 1e-6;      ///< relative residual tolerance (paper: 1e-6)
  /// Convergence reference norm.  0 (the default) keeps the classic
  /// criterion relative to the initial-residual norm ||b - A x0||.
  /// When > 0 (the warm-start path: api::Solver sets ||b|| whenever an
  /// initial guess is installed), convergence and the reported relres
  /// are measured against this fixed norm instead — a good x0 then
  /// genuinely cuts iterations rather than re-normalizing the target.
  double conv_reference = 0.0;
  long max_iters = 1000000;
  int max_restarts = 1000000;
  /// Optional per-restart observer (see solver.hpp).
  ProgressCallback on_restart;
  /// Cooperative cancellation: when non-null, polled at every restart
  /// boundary through a collective max-reduce (all ranks take the same
  /// exit; adds one sync per restart only when installed).  On stop the
  /// result carries cancelled / deadline_expired and the best iterate.
  const par::CancelToken* cancel = nullptr;
};

/// Solves A M^{-1} u = b, x += M^{-1} u from the initial guess in `x`.
/// Collective over `comm`; b and x are rank-local row blocks.
SolveResult gmres(par::Communicator& comm, const sparse::DistCsr& a,
                  const precond::Preconditioner* m_prec,
                  std::span<const double> b, std::span<double> x,
                  const GmresConfig& cfg);

}  // namespace tsbo::krylov
