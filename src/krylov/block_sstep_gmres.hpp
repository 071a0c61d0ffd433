#pragma once
// Block s-step GMRES: the s-step solver of sstep_gmres.hpp generalized
// to b right-hand sides solved simultaneously (ROADMAP "batched
// multi-RHS" item; block Hessenberg + Householder-on-H recurrences
// after phist's bgmres.m/bfgmres.m).
//
// The Krylov basis interleaves the b RHS streams: flat basis column
// c = j*b + t carries RHS t's contribution to block step j, so each
// outer panel is s*b flat columns wide — the two-stage BCGS+CholQR
// machinery, the fused dd Gram reduce, and the stage-2 flush all run
// unchanged on the wider panels, and the synchronization count per
// outer iteration is identical to the single-RHS solver (the panels
// are wider, not more numerous).  Every operator application feeds all
// b columns through ONE fused preconditioner sweep + ONE halo exchange
// (DistCsr::spmm), so MPK communication is amortized k-fold.
//
// Per-RHS convergence is tracked independently through the block
// least-squares residual readout; columns that have converged are
// DEFLATED at restart boundaries — their solution column freezes and
// the next cycle restarts with a narrower block — so one hard RHS
// cannot force converged ones to keep iterating.  The restart seed is
// the CholQR of the active residual block; its R factor S0 forms the
// least-squares right-hand side E1 S0.
//
// b == 1 delegates to sstep_gmres: the single-RHS path stays bitwise
// identical (the block path's Householder-on-H and serial-order spmm
// round differently from the Givens solver and the gather-vectorized
// spmv).  For b > 1, results are bitwise-reproducible across thread
// counts and stable across rank counts — the repo's standard
// determinism contract ({1,2,7}^2 pinned in tests/test_block_gmres.cpp).
// The stability autopilot is a single-RHS feature: its settings are
// ignored here.

#include "krylov/sstep_gmres.hpp"

namespace tsbo::krylov {

struct BlockSStepGmresConfig {
  /// Shared s-step settings (m/s/bs counted in BLOCK steps — the basis
  /// reaches m*b + b flat columns).  autopilot is ignored;
  /// cancel/on_restart/manager_factory are honored.
  SStepGmresConfig base;

  /// Per-RHS convergence reference norms (column-ordered).  Empty =
  /// each column relative to its own initial residual norm; otherwise
  /// must hold one fixed reference per RHS (the warm-start ||b_t||
  /// path, see SStepGmresConfig::conv_reference).
  std::vector<double> conv_reference;
};

/// Solves A M^{-1} U = B, X += M^{-1} U for the b = b_rhs.cols
/// right-hand sides in `b_rhs` from the initial guesses in `x`
/// (rank-local row blocks, column-major).  Collective over `comm`.
SolveResult block_sstep_gmres(par::Communicator& comm,
                              const sparse::DistCsr& a,
                              const precond::Preconditioner* m_prec,
                              dense::ConstMatrixView b_rhs,
                              dense::MatrixView x,
                              const BlockSStepGmresConfig& cfg);

}  // namespace tsbo::krylov
