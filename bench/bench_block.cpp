// Batched multi-RHS block s-step GMRES throughput: one rhs=k batch vs
// k warm independent single-RHS solves of the same columns.
//
// The amortization thesis (ROADMAP "batched multi-RHS" item): a batch
// of k right-hand sides shares every fixed cost a solve pays per
// operator application — ONE halo exchange per operator apply
// regardless of k, ONE Gram reduce per orthogonalization stage (the
// two-stage panels get wider, not more numerous), ONE service dispatch
// and ONE cached operator acquisition per batch — while k independent
// solves pay all of them k times.
//
//   bench_block [--k=1,2,4,8] [--nx=64] [--ranks=2] [--m=10] [--s=5]
//               [--bs=10] [--net=ethernet] [--precond=none]
//               [--json=block.json]
//
// Fixed work per run (unreachable rtol, max_restarts=1) so every k
// performs the same per-RHS basis work and the shared fixed costs are
// what differ.  One untimed warm-up solve takes the operator-cache
// miss; after it, each k runs kRepeats alternating rounds of (the
// rhs=k batch, then k independent rhs=1 solves), all cache hits, and
// the table reports each mode's median time (and its quartile spread)
// over the rounds.  GFLOP/s counts SpMV flops (2 * nnz per operator
// application per column) — a portable proxy that is comparable
// across k.
//
// Verified invariants (exit 1 on violation):
//   * every batched report carries per-RHS results[] of length k and
//     the tsbo.solve_report/8 schema tag;
//   * every batch makes exactly the halo rounds and allreduces of one
//     single-RHS solve (the fixed-work runs never deflate);
//   * exactly one operator-cache acquisition per job: after the
//     warm-up the cache never misses (one hit per batch, not per RHS);
//   * the k=1 batch solution is bitwise-identical to the plain
//     single-RHS solve of the same column (both are the width-1 block);
//   * with 4 in --k: the median k=4 batch time is strictly below the
//     median time of the 4 warm independent solves (the CI perf gate).

#include "bench_common.hpp"

#include "par/config.hpp"
#include "service/solver_service.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace {

/// Timed rounds per k; the table and the gate use their medians.
constexpr int kRepeats = 5;

}  // namespace

int main(int argc, char** argv) {
  using namespace tsbo;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);
  const std::vector<int> ks = cli.get_int_list("k", {1, 2, 4, 8});
  const int nx = cli.get_int("nx", 64);
  const int ranks = cli.get_int("ranks", 2);
  const int m = cli.get_int("m", 10);
  const int s = cli.get_int("s", 5);
  const int bs = cli.get_int("bs", m);
  const std::string net = cli.get("net", "ethernet");
  const std::string precond = cli.get("precond", "none");
  const std::string json_path = cli.get("json", "");
  cli.reject_unknown();

  api::SolverOptions base = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage rtol=1e-300 max_restarts=1");
  base.m = m;
  base.s = s;
  base.bs = bs;
  base.nx = nx;
  base.ranks = ranks;
  base.net = net;
  base.precond = precond;

  std::printf(
      "# block s-step GMRES batching: rhs=k batch vs k warm independent "
      "solves, median of %d rounds\n"
      "# nx=%d ranks=%d m=%d s=%d bs=%d net=%s precond=%s (fixed work: "
      "rtol=1e-300, max_restarts=1)\n"
      "# a batch shares what k solves pay k times: one halo exchange per "
      "operator apply, one Gram reduce per stage, one dispatch\n\n",
      kRepeats, nx, ranks, m, s, bs, net.c_str(), precond.c_str());

  // The RHS block every run draws its columns from (column 0 == the
  // ones-RHS), so batched and independent runs solve identical systems.
  const int kmax = *std::max_element(ks.begin(), ks.end());
  const sparse::CsrMatrix a_ref = api::make_matrix(base);
  const std::vector<double> b_all = api::batch_rhs(a_ref, kmax);
  const auto n = static_cast<std::size_t>(a_ref.rows);
  const double nnz_flops = 2.0 * static_cast<double>(a_ref.nnz());

  service::ServiceConfig cfg;
  cfg.label = "bench_block";
  service::SolverService svc(cfg);

  const auto column = [&](int t) {
    return std::vector<double>(
        b_all.begin() + static_cast<std::ptrdiff_t>(n) * t,
        b_all.begin() + static_cast<std::ptrdiff_t>(n) * (t + 1));
  };
  api::SolverOptions sopts = base;
  sopts.rhs = 1;

  // Untimed warm-up: the one operator-cache miss, and the plain
  // single-RHS solution of column 0 for the width-1 pin.
  const service::JobResult warm = svc.wait(svc.submit(sopts, column(0)));
  std::uint64_t jobs_submitted = 1;
  if (!warm.error.empty()) {
    std::printf("!! warm-up solve failed: %s\n", warm.error.c_str());
    return 1;
  }
  const std::vector<double>& plain_solution = warm.solution;
  const par::CommStats& warm_comm = warm.report.result.comm_stats;

  /// Median and quartiles of a sample (linear interpolation).
  struct Spread {
    double q1 = 0.0, median = 0.0, q3 = 0.0;
  };
  const auto spread = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
      const double pos = q * static_cast<double>(v.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, v.size() - 1);
      return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return Spread{at(0.25), at(0.5), at(0.75)};
  };

  util::Table table({"k", "mode", "median s", "q1-q3 s", "s/RHS",
                     "SpMV GFLOP/s", "iters/RHS"});
  bool ok = true;
  double batch_k4 = 0.0, indep_k4 = 0.0;

  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    const int k = ks[ki];
    api::SolverOptions opts = base;
    opts.rhs = k;
    const std::vector<double> bk(
        b_all.begin(), b_all.begin() + static_cast<std::ptrdiff_t>(n) * k);

    std::vector<double> batch_s, indep_s;
    long batch_iters = 0, indep_iters = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      // ---- batched: one rhs=k job over columns [0, k) -----------------
      util::WallTimer batch_timer;
      const service::JobResult batch = svc.wait(svc.submit(opts, bk));
      batch_s.push_back(batch_timer.seconds());
      ++jobs_submitted;
      if (!batch.error.empty()) {
        std::printf("!! k=%d batch failed: %s\n", k, batch.error.c_str());
        return 1;
      }
      const auto& rep_b = batch.report;
      batch_iters = rep_b.result.iters;
      if (k > 1 &&
          rep_b.result.rhs_results.size() != static_cast<std::size_t>(k)) {
        std::printf("!! k=%d: expected %d per-RHS results, got %zu\n", k, k,
                    rep_b.result.rhs_results.size());
        ok = false;
      }
      if (rep_b.json().find(api::kSolveReportSchema) == std::string::npos) {
        std::printf("!! k=%d: report does not carry schema %s\n", k,
                    api::kSolveReportSchema);
        ok = false;
      }
      // One exchange per operator apply and one reduce per stage for
      // all k columns: the batch makes exactly one solve's syncs.
      const par::CommStats& cb = rep_b.result.comm_stats;
      if (cb.p2p_rounds != warm_comm.p2p_rounds ||
          cb.allreduces != warm_comm.allreduces) {
        std::printf("!! k=%d batch made %llu halo rounds / %llu allreduces; "
                    "one solve makes %llu / %llu\n",
                    k, static_cast<unsigned long long>(cb.p2p_rounds),
                    static_cast<unsigned long long>(cb.allreduces),
                    static_cast<unsigned long long>(warm_comm.p2p_rounds),
                    static_cast<unsigned long long>(warm_comm.allreduces));
        ok = false;
      }
      if (!rep_b.service.cache_hit) {
        std::printf("!! k=%d: batch missed the operator cache\n", k);
        ok = false;
      }
      // Width-1 pin: the k=1 batch must be bitwise the plain solve.
      if (k == 1 && batch.solution != plain_solution) {
        std::printf("!! k=1 batch solution differs from the plain "
                    "single-RHS solve (bitwise)\n");
        ok = false;
      }

      // ---- independent: k warm single-RHS jobs over the same columns --
      util::WallTimer indep_timer;
      std::vector<std::uint64_t> ids;
      for (int t = 0; t < k; ++t) ids.push_back(svc.submit(sopts, column(t)));
      std::vector<service::JobResult> singles;
      for (const std::uint64_t id : ids) singles.push_back(svc.wait(id));
      indep_s.push_back(indep_timer.seconds());
      jobs_submitted += static_cast<std::uint64_t>(k);
      indep_iters = 0;
      for (const service::JobResult& r : singles) {
        if (!r.error.empty()) {
          std::printf("!! k=%d independent solve failed: %s\n", k,
                      r.error.c_str());
          return 1;
        }
        indep_iters += r.report.result.iters;
      }
    }

    const auto add_row = [&](const char* mode, const std::vector<double>& secs,
                             long iters) {
      const Spread sp = spread(secs);
      char range[64];
      std::snprintf(range, sizeof range, "%.4f-%.4f", sp.q1, sp.q3);
      table.row()
          .add(k)
          .add(mode)
          .add(sp.median, 4)
          .add(range)
          .add(sp.median / k, 4)
          .add(sp.median > 0.0 ? nnz_flops * static_cast<double>(iters) /
                                     sp.median * 1e-9
                               : 0.0,
               2)
          .add(static_cast<double>(iters) / k, 1);
      return sp.median;
    };
    const double batch_med = add_row("batch", batch_s, batch_iters);
    const double indep_med = add_row("k solves", indep_s, indep_iters);
    if (k == 4) {
      batch_k4 = batch_med;
      indep_k4 = indep_med;
    }
    if (ki + 1 < ks.size()) table.separator();
  }
  table.print();

  // One acquisition per job: the only miss is the warm-up.
  const service::OperatorCache::Stats stats = svc.cache_stats();
  std::printf(
      "\n# operator cache: %llu hits, %llu misses (%llu jobs — one "
      "acquisition per batch, not per RHS)\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(jobs_submitted));
  if (stats.misses != 1 || stats.hits != jobs_submitted - 1) {
    std::printf("!! expected exactly one miss and one acquisition per job\n");
    ok = false;
  }

  if (batch_k4 > 0.0 && indep_k4 > 0.0) {
    std::printf("# k=4, median of %d: batch %.4fs vs 4 warm solves %.4fs "
                "(%.2fx)\n",
                kRepeats, batch_k4, indep_k4, indep_k4 / batch_k4);
    if (!(batch_k4 < indep_k4)) {
      std::printf("!! batching gained nothing: the k=4 batch is not faster "
                  "than 4 warm independent solves\n");
      ok = false;
    }
  }

  if (svc.log().save(json_path)) {
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
