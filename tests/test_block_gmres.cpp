// Block s-step GMRES (batched multi-RHS): the width-1 solve's
// determinism across ranks x threads, block solves agreeing with k
// independent solves column by column, per-RHS deflation at restart
// boundaries, bitwise reproducibility across ranks x threads {1,2,7}^2,
// the unchanged per-outer-iteration synchronization count, rhs=k
// option validation, and the service's per-column warm-start seeds.

#include "api/solver.hpp"
#include "krylov/sstep_gmres.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "sparse/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace tsbo;

struct BlockRun {
  krylov::SolveResult res;
  std::vector<double> x;  ///< n*k, column-major
};

/// Runs the s-step solver at the krylov layer on `ranks` SPMD ranks.
/// `b` is the full n*k column-major RHS block.
BlockRun run_block_direct(
    const sparse::CsrMatrix& a, const std::vector<double>& b, int k, int ranks,
    const std::function<void(krylov::SStepGmresConfig&)>& tweak = {}) {
  const auto n = static_cast<std::size_t>(a.rows);
  BlockRun out;
  out.x.assign(n * static_cast<std::size_t>(k), 0.0);
  par::spmd_run(ranks, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> xloc(nloc * static_cast<std::size_t>(k), 0.0);
    krylov::SStepGmresConfig cfg;
    if (tweak) tweak(cfg);
    const dense::ConstMatrixView bv{b.data() + begin,
                                    static_cast<dense::index_t>(nloc),
                                    static_cast<dense::index_t>(k),
                                    static_cast<dense::index_t>(n)};
    const dense::MatrixView xv{xloc.data(), static_cast<dense::index_t>(nloc),
                               static_cast<dense::index_t>(k),
                               static_cast<dense::index_t>(nloc)};
    const auto res = krylov::sstep_gmres(comm, dist, nullptr, bv, xv, cfg);
    for (int t = 0; t < k; ++t) {
      std::copy(xloc.begin() + static_cast<std::ptrdiff_t>(nloc) * t,
                xloc.begin() + static_cast<std::ptrdiff_t>(nloc) * (t + 1),
                out.x.begin() + static_cast<std::ptrdiff_t>(n) * t +
                    static_cast<std::ptrdiff_t>(begin));
    }
    if (comm.rank() == 0) out.res = res;
  });
  return out;
}

/// Runs a batched rhs=k solve through the api::Solver facade.
std::pair<api::SolveReport, std::vector<double>> run_facade(
    const sparse::CsrMatrix& a, const std::vector<double>& bk, int k,
    int ranks, const std::string& spec,
    const std::vector<double>* x0 = nullptr) {
  api::SolverOptions opts = api::SolverOptions::parse("solver=sstep " + spec);
  opts.ranks = ranks;
  opts.rhs = k;
  api::Solver solver(opts);
  solver.set_matrix_ref(a, "test");
  solver.set_rhs(bk);
  if (x0 != nullptr) solver.set_initial_guess(*x0);
  const api::SolveReport rep = solver.solve();
  return {rep, solver.solution()};
}

std::vector<double> column(const std::vector<double>& block, std::size_t n,
                           int t) {
  return {block.begin() + static_cast<std::ptrdiff_t>(n) * t,
          block.begin() + static_cast<std::ptrdiff_t>(n) * (t + 1)};
}

TEST(BlockGmres, KEquals1BitwiseAcrossThreadsStableAcrossRanks) {
  // The determinism contract for a width-1 block — the single-RHS
  // solve — over the ranks x threads {1,2,7}^2 acceptance matrix:
  // within a rank count, solution bits, iteration count and relres are
  // identical across thread counts; across rank counts the iteration
  // count must not move.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(20, 20);
  const std::vector<double> b = api::ones_rhs(a);
  const auto n = static_cast<std::size_t>(a.rows);

  long iters_r1 = -1;
  for (const int ranks : {1, 2, 7}) {
    BlockRun ref;
    for (const unsigned threads : {1u, 2u, 7u}) {
      par::set_num_threads(threads);
      const BlockRun block = run_block_direct(a, b, 1, ranks);
      par::set_num_threads(0);
      EXPECT_TRUE(block.res.converged)
          << "ranks=" << ranks << " threads=" << threads;
      ASSERT_EQ(block.res.rhs_results.size(), 1u);
      EXPECT_EQ(block.res.rhs_results[0].iters, block.res.iters);
      ASSERT_EQ(block.x.size(), n);
      if (threads == 1u) {
        ref = block;
        continue;
      }
      EXPECT_EQ(block.res.iters, ref.res.iters)
          << "ranks=" << ranks << " threads=" << threads;
      EXPECT_EQ(block.res.relres, ref.res.relres)
          << "ranks=" << ranks << " threads=" << threads;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(block.x[i], ref.x[i])
            << "ranks=" << ranks << " threads=" << threads
            << " bit drift at " << i;
      }
    }
    if (ranks == 1) {
      iters_r1 = ref.res.iters;
    } else {
      EXPECT_EQ(ref.res.iters, iters_r1) << "ranks=" << ranks;
    }
  }
}

TEST(BlockGmres, FacadeBatchSolvesAllColumnsAndReportsPerRhs) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(32, 32);
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = 4;
  const std::vector<double> bk = api::batch_rhs(a, k);

  const auto [rep, x] =
      run_facade(a, bk, k, 2, "ortho=two_stage rtol=1e-7 max_restarts=200");
  EXPECT_TRUE(rep.result.converged);
  ASSERT_EQ(rep.result.rhs_results.size(), static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) {
    const auto& rr = rep.result.rhs_results[static_cast<std::size_t>(t)];
    EXPECT_TRUE(rr.converged) << "rhs " << t;
    EXPECT_LE(rr.true_relres, 5e-7) << "rhs " << t;
  }
  // Column 0 is the ones-RHS: its solution is the all-ones vector.
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(x[i] - 1.0));
  }
  EXPECT_LT(err, 1e-3);
  // The /7 report carries the per-RHS results array.
  const std::string json = rep.json();
  EXPECT_NE(json.find(std::string("\"schema\": \"") + api::kSolveReportSchema),
            std::string::npos);
  EXPECT_NE(json.find("\"results\": ["), std::string::npos);
}

TEST(BlockGmres, BlockMatchesIndependentSolvesPerColumn) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(32, 32);
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = 3;
  const std::vector<double> bk = api::batch_rhs(a, k);
  const std::string spec = "ortho=two_stage rtol=1e-8 max_restarts=300";

  const auto [rep, x] = run_facade(a, bk, k, 2, spec);
  ASSERT_TRUE(rep.result.converged);

  for (int t = 0; t < k; ++t) {
    api::SolverOptions opts = api::SolverOptions::parse("solver=sstep " + spec);
    opts.ranks = 2;
    api::Solver solver(opts);
    solver.set_matrix_ref(a, "test");
    solver.set_rhs(column(bk, n, t));
    const api::SolveReport srep = solver.solve();
    ASSERT_TRUE(srep.result.converged) << "rhs " << t;
    const std::vector<double> xt = solver.solution();
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff = std::max(diff, std::abs(x[static_cast<std::size_t>(t) * n + i] -
                                     xt[i]));
    }
    EXPECT_LT(diff, 1e-4) << "rhs " << t;
  }
}

TEST(BlockGmres, RestartHistoryCarriesExplicitResidual) {
  // The restart boundary runs correction -> explicit residual ->
  // callback, so the history's explicit_relres is the worst column's
  // explicit residual of the current iterate: after the last cycle it
  // is the reported true_relres.
  api::Solver solver(api::SolverOptions::parse(
      "solver=sstep matrix=convection_diffusion3d nx=12 ortho=two_stage "
      "rtol=1e-8 ranks=2 rhs=2"));
  const api::SolveReport rep = solver.solve();
  ASSERT_TRUE(rep.result.converged);
  ASSERT_FALSE(rep.history.empty());
  const double last = rep.history.back().explicit_relres;
  EXPECT_NEAR(last, rep.result.true_relres, 1e-9 * rep.result.true_relres);
}

TEST(BlockGmres, DeflationFreezesConvergedColumnAtRestartBoundary) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(24, 24);
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = 2;
  const std::vector<double> bk = api::batch_rhs(a, k);

  // Pre-solve column 1 tightly; feeding that solution back as the
  // initial guess makes column 1 start converged.
  api::SolverOptions opts = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage rtol=1e-10 max_restarts=500");
  api::Solver pre(opts);
  pre.set_matrix_ref(a, "test");
  pre.set_rhs(column(bk, n, 1));
  ASSERT_TRUE(pre.solve().result.converged);
  const std::vector<double> x1 = pre.solution();

  std::vector<double> x0(n * k, 0.0);
  std::copy(x1.begin(), x1.end(), x0.begin() + static_cast<std::ptrdiff_t>(n));

  const auto [rep, x] = run_facade(
      a, bk, k, 2, "ortho=two_stage rtol=1e-6 max_restarts=200", &x0);
  ASSERT_TRUE(rep.result.converged);
  ASSERT_EQ(rep.result.rhs_results.size(), 2u);
  const auto& easy = rep.result.rhs_results[1];
  const auto& hard = rep.result.rhs_results[0];
  // Column 1 deflates at the very first boundary, before any panel:
  // zero iterations charged, solution column frozen at the guess bits.
  EXPECT_TRUE(easy.converged);
  EXPECT_EQ(easy.deflated_at_restart, 0);
  EXPECT_EQ(easy.iters, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(x[n + i], x1[i]) << "deflated column moved at " << i;
  }
  // Column 0 keeps iterating on its own, and still converges.
  EXPECT_TRUE(hard.converged);
  EXPECT_GT(hard.iters, 0);
  EXPECT_LE(hard.true_relres, 5e-6);
}

TEST(BlockGmres, BitwiseAcrossThreadsStableAcrossRanks) {
  // The acceptance matrix, with the repo's determinism convention
  // (test_autopilot): within a rank count, solution bits and iteration
  // counts are identical across thread counts {1,2,7}; across rank
  // counts the partitioned fold order changes, so the solutions are
  // only close — but the iteration count must not move.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(20, 20);
  const int k = 3;
  const std::vector<double> bk = api::batch_rhs(a, k);
  const std::string spec = "ortho=two_stage rtol=1e-8 max_restarts=300";

  std::vector<double> x_r1;
  long iters_r1 = -1;
  for (const int ranks : {1, 2, 7}) {
    std::vector<double> x_t1;
    long iters_t1 = -1;
    for (const unsigned threads : {1u, 2u, 7u}) {
      par::set_num_threads(threads);
      const auto [rep, x] = run_facade(a, bk, k, ranks, spec);
      par::set_num_threads(0);
      EXPECT_TRUE(rep.result.converged)
          << "ranks=" << ranks << " threads=" << threads;
      if (threads == 1u) {
        x_t1 = x;
        iters_t1 = rep.result.iters;
        continue;
      }
      EXPECT_EQ(rep.result.iters, iters_t1)
          << "ranks=" << ranks << " threads=" << threads;
      ASSERT_EQ(x.size(), x_t1.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i], x_t1[i]) << "ranks=" << ranks << " threads="
                                 << threads << " bit drift at " << i;
      }
    }
    if (ranks == 1) {
      x_r1 = x_t1;
      iters_r1 = iters_t1;
      continue;
    }
    EXPECT_EQ(iters_t1, iters_r1) << "ranks=" << ranks;
    ASSERT_EQ(x_t1.size(), x_r1.size());
    for (std::size_t i = 0; i < x_t1.size(); ++i) {
      EXPECT_NEAR(x_t1[i], x_r1[i], 1e-7) << "ranks=" << ranks;
    }
  }
}

TEST(BlockGmres, SyncCountPerOuterIterationMatchesSingleRhs) {
  // The amortization claim: panels get WIDER with k, not more numerous,
  // so the all-reduce count added per restart cycle is identical to the
  // single-RHS solver's.  Measure the per-cycle delta (4 restarts minus
  // 2 restarts) to cancel setup/exit constants.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(24, 24);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::vector<double> b4 = api::batch_rhs(a, 4);

  const auto syncs = [&](int k, int restarts) {
    const std::string spec =
        "ortho=two_stage s=5 bs=60 rtol=1e-30 max_restarts=" +
        std::to_string(restarts);
    if (k == 1) {
      api::SolverOptions opts =
          api::SolverOptions::parse("solver=sstep " + spec);
      opts.ranks = 2;
      api::Solver solver(opts);
      solver.set_matrix_ref(a, "test");
      solver.set_rhs(column(b4, n, 0));
      return solver.solve().result.comm_stats.allreduces;
    }
    const auto [rep, x] = run_facade(a, b4, k, 2, spec);
    return rep.result.comm_stats.allreduces;
  };

  const auto scalar_delta = syncs(1, 4) - syncs(1, 2);
  const auto block_delta = syncs(4, 4) - syncs(4, 2);
  EXPECT_GT(scalar_delta, 0);
  EXPECT_EQ(block_delta, scalar_delta);
}

TEST(BlockGmres, OptionsValidation) {
  const auto check = [](const std::string& spec) {
    api::SolverOptions::parse(spec).validate();
  };
  // rhs must be positive, and batched solves require the s-step solver.
  EXPECT_THROW(check("solver=sstep rhs=0"), std::invalid_argument);
  EXPECT_THROW(check("solver=gmres rhs=2"), std::invalid_argument);
  EXPECT_NO_THROW(check("solver=gmres rhs=1"));
  EXPECT_NO_THROW(check("solver=sstep rhs=4"));
  // The block solver enforces the same shape rules as the scalar one.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(8, 8);
  const std::vector<double> bk = api::batch_rhs(a, 2);
  EXPECT_THROW(run_facade(a, bk, 2, 1, "s=7"), std::invalid_argument);
  EXPECT_THROW(run_facade(a, bk, 2, 1, "ortho=two_stage bs=13"),
               std::invalid_argument);
  // conv_reference, when given, must carry one norm per RHS.
  EXPECT_THROW(
      run_block_direct(a, bk, 2, 1,
                       [](krylov::SStepGmresConfig& cfg) {
                         cfg.conv_reference = {1.0};
                       }),
      std::invalid_argument);
}

TEST(BlockGmres, ServiceSeedsWarmStartsPerColumn) {
  // A batch stores one warm-start seed per COLUMN, keyed by that
  // column's RHS fingerprint — a later single-RHS job solving one of
  // the batch's columns warm-starts from the matching seed.
  api::SolverOptions opts = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage rtol=1e-8 max_restarts=1000 "
      "matrix=laplace2d_5pt");
  opts.nx = 24;
  opts.ranks = 2;
  opts.rhs = 3;

  service::SolverService svc;
  const service::JobResult cold = svc.wait(svc.submit(opts));
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  ASSERT_TRUE(cold.report.result.converged);
  EXPECT_FALSE(cold.report.service.warm_started);

  // Re-batching the identical RHS block: every column's fingerprint
  // matches, the whole guess is seeded, and the repeat is trivial.
  api::SolverOptions warm_opts = opts;
  warm_opts.warm_start = 1;
  const service::JobResult warm = svc.wait(svc.submit(warm_opts));
  ASSERT_TRUE(warm.error.empty()) << warm.error;
  EXPECT_TRUE(warm.report.service.warm_started);
  EXPECT_TRUE(warm.report.result.converged);
  EXPECT_LT(warm.report.result.iters, cold.report.result.iters);

  // A single-RHS job for batch column 2 finds that column's seed.
  const sparse::CsrMatrix a = api::make_matrix(opts);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::vector<double> bk = api::batch_rhs(a, 3);
  api::SolverOptions single = opts;
  single.rhs = 1;
  single.warm_start = 1;
  const service::JobResult one =
      svc.wait(svc.submit(single, column(bk, n, 2)));
  ASSERT_TRUE(one.error.empty()) << one.error;
  EXPECT_TRUE(one.report.service.warm_started);
  EXPECT_TRUE(one.report.result.converged);
  EXPECT_LT(one.report.result.iters, cold.report.result.iters);

  // The warm-started repeat reproduces the cold batch's solution.
  double diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diff = std::max(diff,
                    std::abs(one.solution[i] - cold.solution[2 * n + i]));
  }
  EXPECT_LT(diff, 1e-6);
}

}  // namespace
