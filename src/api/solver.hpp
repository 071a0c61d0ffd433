#pragma once
// The tsbo::api::Solver facade: one configuration-driven entry point
// for the end-to-end experiment flow the paper runs — pick a matrix,
// a preconditioner, an ortho scheme and (m, s, bs); run under the SPMD
// runtime; get back a SolveReport with phase timers, sync counts, and
// residual history.
//
//   auto opts = api::SolverOptions::parse(
//       "solver=sstep ortho=two_stage matrix=laplace2d_9pt nx=256 ranks=4");
//   api::Solver solver(opts);
//   api::SolveReport report = solver.solve();
//   report.save_json("run.json");
//
// The facade owns the boilerplate the bench binaries used to repeat:
// matrix construction through matrix_registry() (plus optional paper
// max-scaling), the all-ones-solution RHS, row partitioning, per-rank
// preconditioner construction through precond_registry(), critical-path
// timer merging, and gathering the distributed solution.

#include "api/options.hpp"
#include "api/registry.hpp"
#include "api/report.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/aligned.hpp"

#include <functional>
#include <string>
#include <vector>

namespace tsbo::api {

/// RHS such that the solution is the all-ones vector (paper Section
/// VIII): b = A * ones.
std::vector<double> ones_rhs(const sparse::CsrMatrix& a);

/// k-column batch RHS (length rows * k, column t at offset t * rows).
/// Column 0 is exactly ones_rhs (so rhs=1 batches match single-RHS
/// runs); columns t > 0 solve deterministic per-column perturbations
/// of the ones vector, keeping the RHS block full-rank — a
/// rank-deficient block would make the s-step solver's seed CholQR
/// singular.
std::vector<double> batch_rhs(const sparse::CsrMatrix& a, int k);

/// Builds the matrix the options name via matrix_registry(), applying
/// the paper's column-then-row max-scaling when opts.equilibrate is
/// set.  `label` (optional) receives the provenance name.
sparse::CsrMatrix make_matrix(const SolverOptions& opts,
                              std::string* label = nullptr);

class Solver {
 public:
  explicit Solver(SolverOptions opts) : opts_(std::move(opts)) {}

  // Non-copyable/movable: matrix_ may point into owned_matrix_ (or at a
  // caller-borrowed matrix), so a byte-wise copy/move would dangle.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  [[nodiscard]] SolverOptions& options() { return opts_; }
  [[nodiscard]] const SolverOptions& options() const { return opts_; }

  /// Injects the system matrix instead of building it from the matrix
  /// keys.  The owning overload copies/moves; set_matrix_ref() borrows
  /// (the caller keeps `a` alive across solve() — the bench sweeps use
  /// this to share one matrix over many runs).
  Solver& set_matrix(sparse::CsrMatrix a, std::string label = "injected");
  Solver& set_matrix_ref(const sparse::CsrMatrix& a,
                         std::string label = "injected");

  /// Overrides the RHS (default: ones_rhs of the matrix; batch_rhs
  /// when opts.rhs > 1).  Batched solves expect length rows * rhs,
  /// column t at offset t * rows.
  Solver& set_rhs(std::vector<double> b);

  /// Borrowing variant of set_rhs (the caller keeps `b` alive across
  /// solve(); the solver service shares one cached RHS over many jobs).
  Solver& set_rhs_ref(const std::vector<double>& b);

  /// Injects prebuilt per-rank operator pieces (element r is rank r's
  /// DistCsr; size must equal opts.ranks) so solve() skips row
  /// partitioning and DistCsr construction — the expensive comm-plan /
  /// interior-boundary-split setup the operator cache amortizes.  The
  /// pieces must describe the same matrix passed to set_matrix_ref().
  /// Borrowed, like set_matrix_ref.  NOTE: DistCsr's halo buffer makes
  /// spmv non-reentrant per piece, so two solve() calls sharing one
  /// vector must not run concurrently (the service serializes per cache
  /// entry).
  Solver& set_partitioned_operator(const std::vector<sparse::DistCsr>* pieces);

  /// Per-rank preconditioner factory override: when set, solve() calls
  /// this instead of precond_registry().at(opts.precond).make(), letting
  /// a caller reuse precomputed precond::*Setup state (coloring,
  /// eigenvalue estimates) across solves.  May return nullptr ("none").
  using PrecondFactory = std::function<std::unique_ptr<precond::Preconditioner>(
      const SolverOptions&, const sparse::DistCsr&, int rank)>;
  Solver& set_precond_factory(PrecondFactory factory);

  /// Borrows per-rank aligned scratch (element r backs rank r's local
  /// solution vector; resized as needed, fully overwritten each solve,
  /// so reuse never changes bits).  The operator cache hands one
  /// workspace per cached operator so repeat solves skip the per-rank
  /// allocations.  Size must equal opts.ranks.
  Solver& set_local_workspace(std::vector<util::aligned_vector<double>>* ws);

  /// Initial guess (default: zero).  Global length (rows * rhs for
  /// batched solves, column-major like the RHS).  When set,
  /// convergence (and the reported relres) is measured against the
  /// fixed norm ||b|| instead of the initial-residual norm, so a good
  /// guess genuinely cuts iterations (the service's warm-start path).
  Solver& set_initial_guess(std::vector<double> x0);

  /// Per-restart observer, invoked on rank 0 inside the solve (see
  /// krylov::ProgressEvent).  The facade always records the restart
  /// history into the report; this hook adds live reporting on top.
  Solver& on_restart(krylov::ProgressCallback cb);

  /// Borrows a job-scoped fault injector (util/fault.hpp): solve()
  /// installs it on every rank's communicator, so the comm / spmv /
  /// gram sites fire from its plan and the report carries its trail.
  /// When unset and opts.faults is non-empty, solve() builds a fresh
  /// injector per call instead.  The service passes one injector
  /// across a job's retry attempts (fired faults stay fired).
  Solver& set_fault_injector(par::FaultInjector* injector);

  /// Borrows a cancellation token polled at restart boundaries (see
  /// krylov::*Config::cancel).  When unset and opts.deadline_ms > 0,
  /// solve() arms a fresh per-call deadline token.  The service shares
  /// one token per job so cancel(id) reaches a running solve.
  Solver& set_cancel_token(const par::CancelToken* token);

  /// The system matrix (building it from the options if not injected).
  const sparse::CsrMatrix& matrix();

  /// The RHS (building ones_rhs if not set).
  const std::vector<double>& rhs();

  /// Runs the configured solver under the SPMD runtime and returns the
  /// report.  Throws std::invalid_argument on bad options and
  /// propagates solver exceptions (e.g. ortho::CholeskyBreakdown under
  /// breakdown=throw).  Repeatable: each call is a fresh run.
  SolveReport solve();

  /// Gathered global solution of the last solve() (rows * rhs doubles
  /// for batched solves, column t at offset t * rows).
  [[nodiscard]] const std::vector<double>& solution() const { return x_; }

 private:
  SolverOptions opts_;
  sparse::CsrMatrix owned_matrix_;
  const sparse::CsrMatrix* matrix_ = nullptr;  // points at owned_ or borrowed
  std::string matrix_label_;
  std::vector<double> b_;
  const std::vector<double>* b_ref_ = nullptr;  // borrowed RHS, wins over b_
  std::vector<double> x0_;
  std::vector<double> x_;
  const std::vector<sparse::DistCsr>* partitioned_ = nullptr;  // borrowed
  PrecondFactory precond_factory_;
  std::vector<util::aligned_vector<double>>* workspace_ = nullptr;  // borrowed
  krylov::ProgressCallback user_callback_;
  par::FaultInjector* fault_injector_ = nullptr;      // borrowed
  const par::CancelToken* cancel_token_ = nullptr;    // borrowed
};

}  // namespace tsbo::api
