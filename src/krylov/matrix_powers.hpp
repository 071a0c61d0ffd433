#pragma once
// Matrix-powers kernel (paper Fig. 1 lines 6-9, Fig. 5 lines 4-12).
//
// The paper's Trilinos implementation deliberately uses the *standard*
// MPK — s sequential applications of (preconditioned) SpMV, each with
// neighborhood communication — rather than a communication-avoiding
// MPK, because CA-MPK composes poorly with general preconditioners
// (Section III).  We implement the same, driving the split-phase
// DistCsr::apply so each of the s halo exchanges is overlapped with
// the interior rows of its own product (the modeled p2p latency is
// discounted by that compute; see par/communicator.hpp).  A b-column
// block step is one apply of width b; one right-hand side is b = 1.

#include "krylov/basis.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/dist_csr.hpp"
#include "util/aligned.hpp"

namespace tsbo::krylov {

/// The solver's operator: Y = A M^{-1} X (right preconditioning), or
/// plain Y = A X when no preconditioner is attached, on column-major
/// rank-local blocks; one vector is a one-column block.
class PrecOperator {
 public:
  PrecOperator(const sparse::DistCsr& a, const precond::Preconditioner* m)
      : a_(a), m_(m) {}

  [[nodiscard]] const sparse::DistCsr& matrix() const { return a_; }
  [[nodiscard]] const precond::Preconditioner* preconditioner() const {
    return m_;
  }

  /// Y = A M^{-1} X: one preconditioner apply_multi over the block,
  /// then ONE DistCsr::apply (one halo exchange) for all its columns.
  /// X's columns must be contiguous (ld == rows) when it has several.
  void apply_block(par::Communicator& comm, dense::ConstMatrixView x,
                   dense::MatrixView y, util::PhaseTimers* timers) const;

  /// Y = M^{-1} X only (for recovering x from the preconditioned
  /// correction); a copy when no preconditioner is attached.
  void apply_minv_multi(dense::ConstMatrixView x, dense::MatrixView y,
                        util::PhaseTimers* timers) const;

 private:
  const sparse::DistCsr& a_;
  const precond::Preconditioner* m_;
  mutable util::aligned_vector<double> tmp_;  ///< nloc x k M^{-1} X scratch
};

/// Runs MPK on a basis of b-column blocks (flat column c belongs to
/// block c / b; b = 1 is the single-vector basis): fills blocks
/// [first_out, first_out + s) from the recurrence
///   V_{j+1} = (Op X_j - theta_j X_j - sigma_j V_{j-1}) / gamma_j,
/// where X_j is block j and the step index j counts BLOCKS (block
/// first_out - 1 + k is the input of local step k).  Each step is one
/// operator application: one preconditioner sweep plus ONE halo
/// exchange for all b columns.
void matrix_powers(par::Communicator& comm, const PrecOperator& op,
                   const KrylovBasis& basis, dense::MatrixView basis_cols,
                   index_t first_out, index_t s, index_t b,
                   util::PhaseTimers* timers);

}  // namespace tsbo::krylov
