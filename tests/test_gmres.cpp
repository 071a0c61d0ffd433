// Standard GMRES: convergence, restarts, preconditioning, edge cases —
// driven through the api::Solver facade (options strings in, reports
// out), which is how every harness and example runs the solver.

#include "api/solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using namespace tsbo;

struct Problem {
  sparse::CsrMatrix a;
  std::vector<double> b;
  std::vector<double> x_star;
};

Problem laplace_problem(int nx, int ny) {
  Problem p;
  p.a = sparse::laplace2d_5pt(nx, ny);
  p.x_star.assign(static_cast<std::size_t>(p.a.rows), 1.0);
  p.b = api::ones_rhs(p.a);
  return p;
}

/// Runs GMRES distributed over `ranks` ranks via the facade and
/// returns (result, gathered solution).  `spec` overlays the defaults.
std::pair<krylov::SolveResult, std::vector<double>> run_gmres(
    const Problem& prob, int ranks, const std::string& spec = "") {
  api::SolverOptions opts =
      api::SolverOptions::parse("solver=gmres " + spec);
  opts.ranks = ranks;
  api::Solver solver(opts);
  solver.set_matrix_ref(prob.a, "test");
  solver.set_rhs(prob.b);
  const api::SolveReport rep = solver.solve();
  return {rep.result, solver.solution()};
}

double error_vs_exact(const Problem& p, const std::vector<double>& x) {
  double e = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    e = std::max(e, std::abs(x[i] - p.x_star[i]));
  }
  return e;
}

TEST(Gmres, SolvesLaplaceToTolerance) {
  const Problem p = laplace_problem(32, 32);
  const auto [res, x] = run_gmres(p, 1, "rtol=1e-8");
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.true_relres, 1e-7);
  EXPECT_LT(error_vs_exact(p, x), 1e-4);
  EXPECT_GT(res.iters, 60);  // needs restarts at m = 60
  EXPECT_GT(res.restarts, 1);
}

class GmresRanks : public ::testing::TestWithParam<int> {};

TEST_P(GmresRanks, DistributedIterationCountsMatchSequential) {
  const Problem p = laplace_problem(24, 24);
  const auto [seq, xs] = run_gmres(p, 1, "rtol=1e-6");
  const auto [dist, xd] = run_gmres(p, GetParam(), "rtol=1e-6");
  // Deterministic reductions: identical iteration trajectory.
  EXPECT_EQ(seq.iters, dist.iters);
  EXPECT_TRUE(dist.converged);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(xs[i], xd[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GmresRanks, ::testing::Values(2, 3, 5));

TEST(Gmres, ZeroRhsConvergesInstantly) {
  Problem p = laplace_problem(8, 8);
  std::fill(p.b.begin(), p.b.end(), 0.0);
  const auto [res, x] = run_gmres(p, 1);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iters, 0);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(Gmres, ExactInitialGuessNoIterations) {
  const Problem p = laplace_problem(8, 8);
  api::Solver solver(api::SolverOptions::parse("solver=gmres ranks=1"));
  solver.set_matrix_ref(p.a, "test");
  solver.set_rhs(p.b);
  solver.set_initial_guess(p.x_star);  // start at the solution
  const api::SolveReport rep = solver.solve();
  EXPECT_TRUE(rep.result.converged);
  EXPECT_EQ(rep.result.iters, 0);
}

TEST(Gmres, MaxItersCapRespected) {
  const Problem p = laplace_problem(48, 48);
  const auto [res, x] = run_gmres(p, 1, "rtol=1e-14 max_iters=25");
  EXPECT_FALSE(res.converged);
  EXPECT_LE(res.iters, 25);
  EXPECT_GT(res.iters, 0);
}

TEST(Gmres, JacobiPreconditioningReducesIterations) {
  // Jacobi helps once the diagonal varies: use the heterogeneous matrix.
  Problem p;
  p.a = sparse::heterogeneous2d(24, 24, false, 2.0, 3);
  p.x_star.assign(static_cast<std::size_t>(p.a.rows), 1.0);
  p.b = api::ones_rhs(p.a);

  const auto [plain, x1] = run_gmres(p, 2, "rtol=1e-8");
  const auto [prec, x2] = run_gmres(p, 2, "rtol=1e-8 precond=jacobi");
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(prec.converged);
  EXPECT_LT(prec.iters, plain.iters);
  EXPECT_LE(prec.true_relres, 1e-6);
}

TEST(Gmres, CgsSyncCountPerIteration) {
  // CGS2: 2 projection reduces + 1 norm per step (the baseline cost the
  // paper's block methods amortize).
  const Problem p = laplace_problem(16, 16);
  const auto [res, x] = run_gmres(p, 2, "rtol=1e-6");
  ASSERT_TRUE(res.converged);
  // allreduces ~= 3 per iteration + ~2 per restart + initial norms.
  const double per_iter = static_cast<double>(res.comm_stats.allreduces) /
                          static_cast<double>(res.iters);
  EXPECT_NEAR(per_iter, 3.0, 0.2);
}

TEST(Gmres, TracksTrueResidualIndependently) {
  const Problem p = laplace_problem(24, 24);
  const auto [res, x] = run_gmres(p, 1, "rtol=1e-9");
  EXPECT_TRUE(res.converged);
  // Recurrence and true residual agree at convergence (orthonormal basis).
  EXPECT_NEAR(std::log10(res.true_relres + 1e-300),
              std::log10(res.relres + 1e-300), 1.0);
}

}  // namespace
