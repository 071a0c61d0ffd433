// tsbo_perf: the repository's benchmark binary.
//
//   tsbo_perf --workload paper-strong|local-cd3d|service-mix --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--trace-out FILE]
//
// Runs one workload through the public entry points (api::Solver for
// paper-strong / local-cd3d, service::SolverService for service-mix),
// checks every solution with an independent serial residual recompute,
// prints a metric table (name, value, unit, sample count) and, as the
// last line of stdout, one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, taken from spans this file records around its own
// calls into each module, from the SolveReport counters, and from
// layer replays timed from outside.  Nothing inside src/ is
// instrumented.  See perfbench/README.md for the metric definitions.
// perfbench/run.py runs it with glibc's mmap threshold fixed; run
// directly, it uses the default allocator.

#include "api/options.hpp"
#include "api/registry.hpp"
#include "api/report.hpp"
#include "api/solver.hpp"
#include "dense/blas3.hpp"
#include "dense/cholesky.hpp"
#include "dense/matrix.hpp"
#include "par/communicator.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "precond/preconditioner.hpp"
#include "service/operator_cache.hpp"
#include "service/solver_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/partition.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace tsbo;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // --size tiny: smoke-test sizes
  // --corrupt 1: the first timed solution is perturbed before its check,
  // so the smoke test can see the correctness gate fail.
  bool corrupt = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + key + "'");
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") throw std::invalid_argument("--size takes full or tiny");
      a.tiny = val == "tiny";
    } else if (key == "--corrupt") {
      if (val != "0" && val != "1") throw std::invalid_argument("--corrupt takes 0 or 1");
      a.corrupt = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Seeded inputs and the independent correctness reference
// ---------------------------------------------------------------------------

/// splitmix64: portable, so one seed gives the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  std::uint64_t s_;
};

/// Exact solution x*: the all-ones solution of the paper's experiments
/// plus a seeded perturbation, uniform in [-spread/2, spread/2).  The
/// ones component keeps the smooth error modes that make these
/// operators hard.
std::vector<double> seeded_solution(std::size_t n, std::uint64_t seed,
                                    std::uint64_t stream, double spread) {
  Rng rng(seed * 0x100000001B3ull + stream);
  std::vector<double> x(n);
  for (double& v : x) v = 1.0 + spread * (rng.uniform() - 0.5);
  return x;
}

/// Perturbation spread of single right-hand sides.  The seed changes the
/// input bits but not the work: at +-0.05 the restart-cycle count of a
/// service job flipped between one and two from seed to seed.
constexpr double kSpread = 0.002;
/// Spread of the columns of a batch: wide, so the block stays well
/// conditioned.
constexpr double kBatchSpread = 1.0;

/// Serial CSR product written here, independent of the library kernels.
void csr_apply(const sparse::CsrMatrix& a, const double* x, double* y) {
  for (sparse::ord i = 0; i < a.rows; ++i) {
    double acc = 0.0;
    for (auto k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      acc += a.values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

/// b = A X for a column-major block of k solutions.
std::vector<double> rhs_of(const sparse::CsrMatrix& a,
                           const std::vector<double>& x, int k) {
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<double> b(n * static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) csr_apply(a, x.data() + n * t, b.data() + n * t);
  return b;
}

/// Worst column's ||b - A x|| / ||b||, recomputed serially.  `corrupt`
/// adds 1 to x[0] first (the gate self-test).
double true_relres(const sparse::CsrMatrix& a, std::vector<double> x,
                   const std::vector<double>& b, int k, bool corrupt = false) {
  const auto n = static_cast<std::size_t>(a.rows);
  if (x.size() != n * static_cast<std::size_t>(k)) return INFINITY;
  if (corrupt) x[0] += 1.0;
  std::vector<double> ax(n);
  double worst = 0.0;
  for (int t = 0; t < k; ++t) {
    csr_apply(a, x.data() + n * t, ax.data());
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = b[n * t + i] - ax[i];
      rr += d * d;
      bb += b[n * t + i] * b[n * t + i];
    }
    const double rel = std::sqrt(rr) / std::sqrt(bb);
    if (!(rel <= worst)) worst = rel;  // NaN propagates as a failure
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Statistics and metric output
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// The second-largest sample (the only one if there is one): a tail
/// that a single outlier cannot set.
double second_largest(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() < 2 ? quantile(v, 1.0) : v[v.size() - 2];
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // measured / modeled / computed / rank-max / base
};

class MetricTable {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note) {
    rows_.push_back({std::move(name), value, std::move(unit), samples,
                     std::move(note)});
  }

  void print(const std::string& title) const {
    std::printf("\n%s\n%-28s %16s  %-8s %8s  %s\n", title.c_str(), "metric",
                "value", "unit", "samples", "note");
    for (const Metric& m : rows_) {
      std::printf("%-28s %16.6g  %-8s %8zu  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  }

  /// The result line; `skip` names table rows kept out of the JSON.
  void print_json(bool correct, long attempted, long failed,
                  const std::vector<std::string>& skip) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const Metric& m : rows_) {
      if (std::find(skip.begin(), skip.end(), m.name) != skip.end()) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> rows_;
};

/// Set-up repetitions per run, at least; setup_s is their median.  One
/// set-up takes milliseconds, so a few dozen keep host noise out of it.
constexpr int kSetupReps = 41;
/// Of those, the solver workloads run this many after each solve (off
/// the window clock), so the median samples the host over the whole run:
/// taken in one block, the median moved by 25% between runs.
constexpr int kSetupRepsPerSolve = 4;

void print_setup_samples(const char* what, const std::vector<double>& setup) {
  std::printf("%s: %zu reps, min %.4f s, median %.4f s, max %.4f s\n", what, setup.size(),
              *std::min_element(setup.begin(), setup.end()), median(setup),
              *std::max_element(setup.begin(), setup.end()));
}

/// Peak resident set (VmHWM) of this process in MB.
double rss_peak_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans: recorded around this file's own calls into the library
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double t0 = 0.0;  // seconds since the tracer was created
  double t1 = 0.0;
  long parent = -1;   // index of the enclosing span, -1 at the root
  long request = -1;  // solve / job the span belongs to
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double now() const { return seconds_between(origin_, Clock::now()); }

  long add(std::string name, double t0, double t1, long parent, long request) {
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), t0, t1, parent, request});
    return static_cast<long>(spans_.size()) - 1;
  }

  /// Opens a span now (so children can name it as parent); end() closes it.
  long begin(std::string name, long parent, long request) {
    const double t = now();
    return add(std::move(name), t, t, parent, request);
  }
  void end(long id) {
    const double t = now();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }

  std::vector<double> durations(const std::string& name) const {
    std::lock_guard lock(mu_);
    std::vector<double> d;
    for (const Span& s : spans_) {
      if (s.name == name) d.push_back(s.t1 - s.t0);
    }
    return d;
  }

  void write(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream f(path);
    f << "{\"schema\": \"tsbo.perfbench_spans/1\", \"spans\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"t0\": %.9f, \"t1\": %.9f, "
                    "\"parent\": %ld, \"request\": %ld}",
                    i == 0 ? "" : ",", s.name.c_str(), s.t0, s.t1, s.parent,
                    s.request);
      f << buf;
    }
    f << "\n]}\n";
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Preconditioner wrapper installed through Solver::set_precond_factory:
/// forwards every apply to the registry-built preconditioner and, on
/// rank 0, records a span around it.
class TracedPrecond final : public precond::Preconditioner {
 public:
  TracedPrecond(std::unique_ptr<precond::Preconditioner> inner, Tracer* tracer,
                long parent, long request)
      : inner_(std::move(inner)), tracer_(tracer), parent_(parent), request_(request) {}

  void apply(std::span<const double> x, std::span<double> y) const override {
    const double t0 = tracer_ != nullptr ? tracer_->now() : 0.0;
    inner_->apply(x, y);
    record(t0);
  }

  void apply_multi(std::size_t n, std::size_t ncols, const double* x,
                   std::size_t ldx, double* y, std::size_t ldy) const override {
    const double t0 = tracer_ != nullptr ? tracer_->now() : 0.0;
    inner_->apply_multi(n, ncols, x, ldx, y, ldy);
    record(t0);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void record(double t0) const {
    if (tracer_ != nullptr) tracer_->add("precond.apply", t0, tracer_->now(), parent_, request_);
  }

  std::unique_ptr<precond::Preconditioner> inner_;
  Tracer* tracer_;  // null on ranks > 0
  long parent_;
  long request_;
};

/// Traced solve of an api::Solver: an "api.solve" span, per-restart
/// "krylov.cycle" spans from on_restart, and precond setup/apply spans
/// through the factory wrapper.  Returns the report and wall seconds.
struct TimedSolve {
  api::SolveReport report;
  double wall = 0.0;
};

TimedSolve traced_solve(api::Solver& solver, Tracer* tracer, long request) {
  // The hooks capture this frame; they must not outlive it.
  struct ResetHooks {
    api::Solver& s;
    ~ResetHooks() {
      s.on_restart(nullptr);
      s.set_precond_factory(nullptr);
    }
  } reset{solver};
  TimedSolve out;
  if (tracer == nullptr) {
    const auto t0 = Clock::now();
    out.report = solver.solve();
    out.wall = seconds_between(t0, Clock::now());
    return out;
  }
  const long solve_span = tracer->begin("api.solve", -1, request);
  double cycle_start = tracer->now();
  solver.on_restart([&](const krylov::ProgressEvent&) {
    const double t = tracer->now();
    tracer->add("krylov.cycle", cycle_start, t, solve_span, request);
    cycle_start = t;
  });
  std::vector<double> setup_s(static_cast<std::size_t>(solver.options().ranks), 0.0);
  solver.set_precond_factory([&](const api::SolverOptions& o,
                                 const sparse::DistCsr& d, int rank)
                                 -> std::unique_ptr<precond::Preconditioner> {
    const auto t0 = Clock::now();
    auto inner = api::precond_registry().at(o.precond).make(o, d);
    setup_s[static_cast<std::size_t>(rank)] = seconds_between(t0, Clock::now());
    if (!inner) return nullptr;
    return std::make_unique<TracedPrecond>(std::move(inner), rank == 0 ? tracer : nullptr,
                                           solve_span, request);
  });
  const double t0 = tracer->now();
  const auto c0 = Clock::now();
  out.report = solver.solve();
  out.wall = seconds_between(c0, Clock::now());
  tracer->end(solve_span);
  // Rank-max factory time, as one span from the solve start.
  const double setup = *std::max_element(setup_s.begin(), setup_s.end());
  tracer->add("precond.setup", t0, t0 + setup, solve_span, request);
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gate and exact-count check
// ---------------------------------------------------------------------------

/// The counters the determinism contract says repeat exactly.
struct ExactCounts {
  long iters = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t halo_rounds = 0;
  std::uint64_t precond_applies = 0;
  bool operator==(const ExactCounts&) const = default;
};

ExactCounts exact_counts(const api::SolveReport& r) {
  return {r.result.iters, r.result.comm_stats.allreduces,
          r.result.comm_stats.p2p_rounds, r.result.timers.count("precond")};
}

class Gate {
 public:
  /// Judges one attempted solve against the bound its own rtol implies;
  /// every failure is printed and counted.
  bool judge(const std::string& what, const api::SolveReport& r, bool ok_outcome,
             double true_rel) {
    ++attempted_;
    const double bound = api::kResidualGuardFactor * r.options.rtol;
    std::string why;
    if (!ok_outcome) why = "non-ok outcome";
    else if (!r.result.converged) why = "not converged";
    else if (!(true_rel <= bound)) why = "true residual above bound";
    if (why.empty()) return true;
    ++failed_;
    std::printf("FAILED %s: %s (true relres %.3e, bound %.3e)\n", what.c_str(),
                why.c_str(), true_rel, bound);
    return false;
  }

  void exception(const std::string& what, const std::string& msg) {
    ++attempted_;
    ++failed_;
    std::printf("FAILED %s: exception: %s\n", what.c_str(), msg.c_str());
  }

  /// Exact-count check: the first sample of `key` is the reference; a
  /// later mismatch is flagged (printed and counted as a failure).
  void check_counts(const std::string& key, const ExactCounts& c) {
    const auto [it, inserted] = counts_.emplace(key, c);
    if (inserted || it->second == c) return;
    ++count_mismatches_;
    std::printf("COUNT MISMATCH %s: iters %ld/%ld allreduces %llu/%llu "
                "halo_rounds %llu/%llu precond_applies %llu/%llu\n",
                key.c_str(), it->second.iters, c.iters,
                static_cast<unsigned long long>(it->second.allreduces),
                static_cast<unsigned long long>(c.allreduces),
                static_cast<unsigned long long>(it->second.halo_rounds),
                static_cast<unsigned long long>(c.halo_rounds),
                static_cast<unsigned long long>(it->second.precond_applies),
                static_cast<unsigned long long>(c.precond_applies));
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_ + count_mismatches_; }
  bool correct() const { return failed() == 0; }

  void print_counts() const {
    for (const auto& [key, c] : counts_) {
      std::printf("exact-counts %s iters=%ld allreduces=%llu halo_rounds=%llu "
                  "precond_applies=%llu\n",
                  key.c_str(), c.iters,
                  static_cast<unsigned long long>(c.allreduces),
                  static_cast<unsigned long long>(c.halo_rounds),
                  static_cast<unsigned long long>(c.precond_applies));
    }
  }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  long count_mismatches_ = 0;
  std::map<std::string, ExactCounts> counts_;
};

// ---------------------------------------------------------------------------
// Per-solve layer samples (SolveReport counters) -> per-layer metrics
// ---------------------------------------------------------------------------

struct LayerSamples {
  std::vector<double> allreduces, allreduce_bytes, reduce_s, exposed_s,
      overlapped_s, halo_rounds, halo_bytes, halo_s, spmv_per_iter,
      spmv_local_s, precond_s, precond_applies, dot_s, update_s, factor_s,
      small_s, overhead_s, iters, restarts;
  double lookahead_hits = 0.0;
  double lookahead_tries = 0.0;

  void add(const api::SolveReport& r, double wall) {
    const krylov::SolveResult& res = r.result;
    const par::CommStats& c = res.comm_stats;
    const api::OrthoBreakdown ob = api::breakdown_of(res);
    allreduces.push_back(static_cast<double>(c.allreduces));
    allreduce_bytes.push_back(static_cast<double>(c.bytes_allreduced));
    reduce_s.push_back(ob.reduce);
    exposed_s.push_back(c.injected_seconds);
    overlapped_s.push_back(c.overlapped_seconds);
    halo_rounds.push_back(static_cast<double>(c.p2p_rounds));
    halo_bytes.push_back(static_cast<double>(c.bytes_exchanged));
    halo_s.push_back(res.timers.seconds("spmv/comm"));
    // One halo round per operator application; a single rank has no
    // halo, and then each application is one timed local phase.
    const double applications =
        r.ranks > 1 ? static_cast<double>(c.p2p_rounds)
                    : static_cast<double>(res.timers.count("spmv/local"));
    spmv_per_iter.push_back(res.iters > 0 ? applications / static_cast<double>(res.iters)
                                          : 0.0);
    spmv_local_s.push_back(res.timers.seconds("spmv/local"));
    precond_s.push_back(res.time_precond());
    precond_applies.push_back(static_cast<double>(res.timers.count("precond")));
    dot_s.push_back(ob.dot);
    update_s.push_back(ob.update);
    factor_s.push_back(ob.factor);
    small_s.push_back(ob.small);
    overhead_s.push_back(wall - res.time_total());
    iters.push_back(static_cast<double>(res.iters));
    restarts.push_back(static_cast<double>(res.restarts));
    lookahead_hits += static_cast<double>(res.lookahead_hits);
    lookahead_tries += static_cast<double>(res.lookahead_hits + res.lookahead_misses);
  }

  void report(MetricTable& t) const {
    const std::size_t n = iters.size();
    t.add("ortho.allreduces", median(allreduces), "count", n, "per solve, rank 0, exact");
    t.add("ortho.allreduce_bytes", median(allreduce_bytes), "B", n, "per solve, rank 0");
    t.add("ortho.reduce_s", median(reduce_s), "s", n, "measured incl. modeled spin, rank-max");
    t.add("par.modeled_exposed_s", median(exposed_s), "s", n, "modeled (NetworkModel spin), rank 0");
    t.add("par.modeled_overlapped_s", median(overlapped_s), "s", n, "modeled, hidden behind compute, rank 0");
    t.add("sparse.halo_rounds", median(halo_rounds), "count", n, "per solve, rank 0, exact");
    t.add("sparse.halo_bytes", median(halo_bytes), "B", n, "per solve, rank 0");
    t.add("sparse.halo_s", median(halo_s), "s", n, "measured incl. modeled spin, rank-max");
    t.add("krylov.spmv_per_iter", median(spmv_per_iter), "ratio", n, "base: iters (operator applications / iters)");
    t.add("krylov.lookahead_hit_ratio",
          lookahead_tries > 0 ? lookahead_hits / lookahead_tries : 0.0, "ratio", n,
          "base: hits+misses = " + std::to_string(static_cast<long>(lookahead_tries)));
    t.add("sparse.spmv_local_s", median(spmv_local_s), "s", n, "measured, rank-max");
    t.add("precond.apply_s", median(precond_s), "s", n, "measured, rank-max");
    t.add("precond.applies", median(precond_applies), "count", n, "per solve, rank-max, exact");
    t.add("ortho.dot_s", median(dot_s), "s", n, "measured, rank-max");
    t.add("ortho.update_s", median(update_s), "s", n, "measured, rank-max");
    t.add("ortho.factor_s", median(factor_s), "s", n, "measured, rank-max (chol+trsm+hhqr)");
    t.add("ortho.small_s", median(small_s), "s", n, "measured, rank-max");
    t.add("api.solve_overhead_s", median(overhead_s), "s", n, "measured: wall - report total");
    t.add("krylov.iters", median(iters), "count", n, "per solve, exact");
    t.add("krylov.restarts", median(restarts), "count", n, "per solve, exact");
  }
};

// ---------------------------------------------------------------------------
// Layer replays, timed from outside
// ---------------------------------------------------------------------------

struct Replays {
  double spmv_call_s = 0.0;
  double spmv_gbs = 0.0;
  double gemm_tn_gflops = 0.0;
  double gemm_nn_gflops = 0.0;
  double chol_call_s = 0.0;
};

/// Calls fn repeatedly (at least min_reps, until budget_s), returning
/// the median duration per call.
template <class Fn>
double time_calls(Tracer& tracer, const char* span, int min_reps,
                  double budget_s, Fn&& fn) {
  std::vector<double> d;
  const auto start = Clock::now();
  while (static_cast<int>(d.size()) < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    const double t0 = tracer.now();
    fn();
    const double t1 = tracer.now();
    tracer.add(span, t0, t1, -1, -1);
    d.push_back(t1 - t0);
  }
  return median(d);
}

/// DistCsr::spmv at the workload's partition under par::spmd_run, plus
/// the panel-shaped dense kernels on one rank's local size.  Bytes and
/// flops are computed from array sizes, not measured.
Replays run_replays(const sparse::CsrMatrix& a, const api::SolverOptions& opts,
                    int panel_width, int reps, Tracer& tracer) {
  Replays r;
  const int ranks = opts.ranks;
  std::vector<double> spmv_d;
  std::atomic<long long> ghosts{0};
  par::spmd_run(ranks, opts.network_model(), [&](par::Communicator& comm) {
    const sparse::DistCsr d(a, sparse::RowPartition(a.rows, comm.size()), comm.rank());
    ghosts += d.n_ghost();
    std::vector<double> x(static_cast<std::size_t>(d.n_local()), 1.0);
    std::vector<double> y(x.size());
    d.spmv(comm, x, y);
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
      const double t0 = tracer.now();
      d.spmv(comm, x, y);
      const double t1 = tracer.now();
      if (comm.rank() == 0) {
        tracer.add("replay.spmv", t0, t1, -1, -1);
        spmv_d.push_back(t1 - t0);
      }
    }
  });
  r.spmv_call_s = median(spmv_d);
  // Compulsory traffic of one distributed product over all ranks:
  // values + column indices, row pointers + row maps, x copied into the
  // halo buffer and read back, y written, ghosts pulled.
  const double rows = static_cast<double>(a.rows);
  const double bytes = static_cast<double>(a.nnz()) * (8.0 + 4.0) +
                       rows * (8.0 + 4.0 + 8.0 * 4.0) +
                       static_cast<double>(ghosts.load()) * 8.0;
  r.spmv_gbs = bytes / r.spmv_call_s * 1e-9;
  std::printf("replay spmv: %d ranks, %.2f MiB arrays (computed), %.3e s/call\n",
              ranks, bytes / (1 << 20), r.spmv_call_s);

  // Dense kernels run serially, as they do inside a rank thread.
  const par::ScopedSerial serial;
  const auto n = static_cast<dense::index_t>(a.rows / ranks);
  const dense::index_t w = panel_width;
  dense::Matrix p(n, w);
  Rng rng(0x5EED);
  for (dense::index_t j = 0; j < w; ++j) {
    for (dense::index_t i = 0; i < n; ++i) p(i, j) = rng.uniform() - 0.5;
  }
  dense::Matrix g(w, w);
  dense::Matrix out(n, w);
  const double flops = 2.0 * static_cast<double>(n) * w * w;
  const double budget = std::min(0.3, 0.02 * reps);
  const double tn = time_calls(tracer, "replay.gemm_tn", 3, budget, [&] {
    dense::gemm_tn(1.0, std::as_const(p).view(), std::as_const(p).view(), 0.0, g.view());
  });
  const double nn = time_calls(tracer, "replay.gemm_nn", 3, budget, [&] {
    dense::gemm_nn(1.0, std::as_const(p).view(), std::as_const(g).view(), 0.0, out.view());
  });
  r.gemm_tn_gflops = flops / tn * 1e-9;
  r.gemm_nn_gflops = flops / nn * 1e-9;
  dense::gemm_tn(1.0, std::as_const(p).view(), std::as_const(p).view(), 0.0, g.view());
  dense::Matrix f(w, w);
  bool chol_ok = true;
  r.chol_call_s = time_calls(tracer, "replay.chol", 3, budget, [&] {
    f = g;
    chol_ok = dense::potrf_upper(f.view()).ok() && chol_ok;
  });
  if (!chol_ok) throw std::runtime_error("replay: Gram Cholesky failed");
  std::printf("replay dense: panel %d x %d (%.2f MiB, computed), gemm %.3e flop/call\n",
              static_cast<int>(n), static_cast<int>(w),
              static_cast<double>(n) * w * 8.0 / (1 << 20), flops);
  return r;
}

void report_replays(const Replays& r, MetricTable& t) {
  t.add("sparse.spmv_call_s", r.spmv_call_s, "s", 1, "replay, measured median per call");
  t.add("sparse.spmv_gbs_computed", r.spmv_gbs, "GB/s", 1, "replay, computed bytes / measured time");
  t.add("dense.gemm_tn_gflops", r.gemm_tn_gflops, "GFLOP/s", 1, "replay, computed flops / measured time");
  t.add("dense.gemm_nn_gflops", r.gemm_nn_gflops, "GFLOP/s", 1, "replay, computed flops / measured time");
  t.add("dense.chol_call_s", r.chol_call_s, "s", 1, "replay, measured median per call");
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

std::string paper_strong_spec(bool tiny) {
  return std::string("matrix=laplace2d_9pt nx=") + (tiny ? "32" : "256") +
         " solver=sstep ortho=two_stage m=60 s=5 bs=60 precond=none"
         " ranks=4 net=calibrated rtol=1e-8";
}

/// Two ranks, not four: rank threads are pinned one per core and wait in
/// spinning barriers, so at four ranks any other thread on the host
/// stalls every rank (a light load on one core slowed the solve by 25%);
/// at two the scheduler moves such threads to the free cores (under 1%).
std::string local_cd3d_spec(bool tiny) {
  return std::string("matrix=convection_diffusion3d nx=") + (tiny ? "10" : "64") +
         " solver=sstep precond=mc-sgs ranks=2 net=off rtol=1e-10";
}

/// One solve of `spec` (untraced), for the reference numbers.  The
/// solution is checked like every other one.
double reference_solve(const std::string& spec, const std::string& change,
                       std::uint64_t seed, Gate& gate) {
  const api::SolverOptions opts =
      api::SolverOptions::parse(change, api::SolverOptions::parse(spec));
  const sparse::CsrMatrix a = api::make_matrix(opts);
  const std::vector<double> x_star =
      seeded_solution(static_cast<std::size_t>(a.rows), seed, 0, kSpread);
  const std::vector<double> b = rhs_of(a, x_star, 1);
  api::Solver solver(opts);
  solver.set_matrix_ref(a, opts.matrix).set_rhs_ref(b);
  const TimedSolve s = traced_solve(solver, nullptr, -1);
  gate.judge("reference " + spec + " " + change, s.report,
             s.report.resilience.outcome == "ok",
             true_relres(a, solver.solution(), b, 1));
  return s.wall;
}

void report_references(const Args& args, double traced_s, double untraced_s,
                       MetricTable& t, Gate& gate) {
  const std::string ps = paper_strong_spec(args.tiny);
  const double ts = reference_solve(ps, "", args.seed, gate);
  const double pip2 = reference_solve(ps, "ortho=bcgs_pip2", args.seed, gate);
  t.add("ortho.two_stage_over_pip2", ts / pip2, "ratio", 1,
        "measured wall, paper-strong shape; base: bcgs_pip2 solve");
  const std::string cd = local_cd3d_spec(args.tiny);
  const double many = reference_solve(cd, "", args.seed, gate);
  const double one = reference_solve(cd, "ranks=1", args.seed, gate);
  t.add("par.speedup_vs_1rank", one / many, "ratio", 1,
        "measured wall, local-cd3d shape; base: ranks=2 solve");
  t.add("trace.overhead_frac", untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0,
        "ratio", 1, "traced vs untraced median solve_s in this run");
}

void report_service_zeros(MetricTable& t) {
  for (const char* name : {"service.queue_s", "service.overhead_s"}) {
    t.add(name, 0.0, "s", 0, "bypassed on this workload");
  }
  t.add("service.cache_hit_ratio", 0.0, "ratio", 0, "bypassed on this workload");
  t.add("service.setup_s", 0.0, "s", 0, "bypassed on this workload");
  t.add("service.warm_started_ratio", 0.0, "ratio", 0, "bypassed on this workload");
}

/// paper-strong and local-cd3d: one api::Solver, one solve at a time,
/// closed loop, one thread per rank.
int run_solver_workload(const Args& args, const std::string& spec) {
  const api::SolverOptions opts = api::SolverOptions::parse(spec);
  // Set-up (assembly + RHS) runs on the shared pool, as wide as the
  // solve's rank count; solves run one thread per rank whose kernels are
  // serial.
  par::set_num_threads(static_cast<unsigned>(opts.ranks));
  std::printf("workload %s: %s\n", args.workload.c_str(), spec.c_str());

  std::vector<double> setup;
  // One set-up repetition into (m, rhs).  They are freed before the
  // next build, so every repetition starts from the same heap: under the
  // default allocator, rebuilding next to the live copy made glibc trim
  // and re-fault the heap on some repetitions only (0, 3,500 or 5,300
  // page faults on local-cd3d), and the median jumped between them.
  const auto set_up = [&](sparse::CsrMatrix& m, std::vector<double>& rhs) {
    m = sparse::CsrMatrix{};
    rhs = std::vector<double>{};
    const auto t0 = Clock::now();
    m = api::make_matrix(opts);
    rhs = rhs_of(m, seeded_solution(static_cast<std::size_t>(m.rows), args.seed, 0, kSpread), 1);
    setup.push_back(seconds_between(t0, Clock::now()));
  };
  sparse::CsrMatrix a;
  std::vector<double> b;
  set_up(a, b);
  std::printf("operator: %d rows, %lld nnz\n", a.rows, static_cast<long long>(a.nnz()));
  sparse::CsrMatrix spare_a;  // the solver holds a and b by reference
  std::vector<double> spare_b;

  api::Solver solver(opts);
  solver.set_matrix_ref(a, opts.matrix).set_rhs_ref(b);
  Gate gate;
  Tracer tracer;
  LayerSamples layers;
  std::vector<double> solve_s, traced_s, untraced_s;
  long rhs_solved = 0;
  double window = 0.0;

  // One untimed warm-up (its counts are the exact-count reference),
  // then the timed window: solve time only, checks excluded.
  for (long i = -1; i == -1 || window < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    TimedSolve s;
    try {
      s = traced_solve(solver, traced ? &tracer : nullptr, i);
    } catch (const std::exception& e) {
      gate.exception("solve " + std::to_string(i), e.what());
      if (i >= 0) window += args.seconds;  // stop: a throwing solve has no time
      continue;
    }
    const bool ok = gate.judge("solve " + std::to_string(i), s.report,
                               s.report.resilience.outcome == "ok",
                               true_relres(a, solver.solution(), b, 1, args.corrupt && i == 0));
    if (i >= 0) {
      window += s.wall;
      solve_s.push_back(s.wall);
      (traced ? traced_s : untraced_s).push_back(s.wall);
      if (ok) ++rhs_solved;
      layers.add(s.report, s.wall);
    }
    gate.check_counts(args.workload, exact_counts(s.report));
    // Freed after use: alive through the next solve, the spare copy
    // raised peak RSS by one matrix.
    for (int r = 0; r < kSetupRepsPerSolve; ++r) set_up(spare_a, spare_b);
    spare_a = sparse::CsrMatrix{};
    spare_b = std::vector<double>{};
  }
  // Top up to kSetupReps when the window held few solves.
  while (setup.size() < static_cast<std::size_t>(kSetupReps)) set_up(spare_a, spare_b);
  spare_a = sparse::CsrMatrix{};
  spare_b = std::vector<double>{};
  print_setup_samples("setup (assembly + RHS)", setup);
  std::printf("solves (s, in order):");
  for (const double w : solve_s) std::printf(" %.3f", w);
  std::printf("\n");

  MetricTable t;
  if (!args.trace) {
    t.add("solve_s", median(solve_s), "s", solve_s.size(), "measured median wall per solve");
    // Too few solves for a p90 with ten samples beyond it.  The slowest
    // solve was one host hiccup away from any value (spread 0.22 over
    // ten seeds on local-cd3d); the second-slowest takes two.
    t.add("solve_s.p90", second_largest(solve_s), "s", solve_s.size(),
          "measured SECOND-SLOWEST wall per solve (too few solves for a p90)");
    t.add("rhs_per_s", static_cast<double>(rhs_solved) / window, "1/s", solve_s.size(),
          "measured, window " + std::to_string(window) + " s");
    t.add("setup_s", median(setup), "s", setup.size(), "measured median of assembly + RHS");
    t.add("rss_peak_mb", rss_peak_mb(), "MB", 1, "measured VmHWM");
    t.add("failed_frac", static_cast<double>(gate.failed()) / gate.attempted(), "ratio",
          static_cast<std::size_t>(gate.attempted()), "base: attempted");
  } else {
    layers.report(t);
    const std::vector<double> precond_calls = tracer.durations("precond.apply");
    t.add("precond.apply_call_s", median(precond_calls), "s", precond_calls.size(),
          "span around each rank-0 apply, measured median");
    const std::vector<double> psetup = tracer.durations("precond.setup");
    t.add("precond.setup_s", median(psetup), "s", psetup.size(),
          "span around the factory, measured rank-max");
    const std::vector<double> cycles = tracer.durations("krylov.cycle");
    t.add("krylov.cycle_s", median(cycles), "s", cycles.size(),
          "span between on_restart events, measured median");
    report_service_zeros(t);
    report_replays(run_replays(a, opts, opts.bs, args.tiny ? 10 : 200, tracer), t);
    report_references(args, median(traced_s), median(untraced_s), t, gate);
  }
  gate.print_counts();
  t.print(args.workload + (args.trace ? " per-layer metrics" : " end-to-end metrics"));
  if (!args.trace_out.empty()) tracer.write(args.trace_out);
  t.print_json(gate.correct(), gate.attempted(), gate.failed(), {"failed_frac"});
  return 0;
}

// ---------------------------------------------------------------------------
// service-mix
// ---------------------------------------------------------------------------

/// One kind of job in the seeded mix.
struct JobKind {
  std::string name;
  int op = 0;           // index into the operator list
  std::string extra;    // spec keys on top of the operator's
  int k = 1;            // right-hand sides per job
  bool warm = false;    // warm_start=1 with a perturbed RHS
  int per_deck = 0;     // jobs of this kind in one 46-job deck
};

struct ServiceOperator {
  std::string spec;
  sparse::CsrMatrix a;
  std::vector<double> b;   // b = A x*
  std::vector<double> b4;  // 4-column block for the rhs=4 batch kind
};

int run_service_mix(const Args& args) {
  // Pool width 2, one rank per job.  par::spmd_run pins rank r to core
  // r, so two concurrent 2-rank jobs share cores 0 and 1 and their
  // spinning barriers wait out scheduler time slices: pairs that take
  // 0.02-0.05 s alone took 0.3-1.1 s together, which no bound can hold.
  // With one rank per job both jobs still land on core 0, so the lost
  // parallelism stays visible, but the timing is steady.
  par::set_num_threads(2);
  const bool tiny = args.tiny;
  const std::string common = " solver=sstep ranks=1 net=off rtol=1e-6";
  std::vector<ServiceOperator> ops(3);
  ops[0].spec = std::string("matrix=laplace2d_5pt nx=") + (tiny ? "16" : "64") + common;
  ops[1].spec = std::string("matrix=laplace2d_9pt nx=") + (tiny ? "20" : "96") + common;
  ops[2].spec = std::string("matrix=convection_diffusion3d nx=") + (tiny ? "8" : "20") + common;
  // The deck weighs the five job kinds of the mix equally, 9 of 46 jobs
  // each: a cold job on each of the three operators, the rhs=4 batch,
  // and warm-start repeats (3 per operator).  The 46th is the Chebyshev
  // job, a small share kept so that defect stays visible.
  const std::vector<JobKind> kinds = {
      {"lap5-mcsgs", 0, "precond=mc-sgs", 1, false, 9},
      {"lap9", 1, "", 1, false, 9},
      {"cd3d-jacobi", 2, "precond=jacobi", 1, false, 9},
      // rtol 1e-8: at 1e-6 the batch converges right at the end of its
      // first restart cycle, and the seed flips it between one and two.
      {"lap5-mcsgs-rhs4", 0, "precond=mc-sgs rhs=4 rtol=1e-8", 4, false, 9},
      {"lap5-mcsgs-warm", 0, "precond=mc-sgs warm_start=1", 1, true, 3},
      {"lap9-warm", 1, "warm_start=1", 1, true, 3},
      {"cd3d-jacobi-warm", 2, "precond=jacobi warm_start=1", 1, true, 3},
      // About 2,600 iterations, against 60 for the same operator with
      // MC-SGS.
      {"lap5-chebyshev", 0, "precond=chebyshev", 1, false, 1},
  };
  std::printf("workload service-mix: pool width 2, ranks=1 per job, 2 jobs outstanding\n");
  for (const JobKind& k : kinds) {
    std::printf("  kind %-18s x%d/deck: %s %s\n", k.name.c_str(), k.per_deck,
                ops[static_cast<std::size_t>(k.op)].spec.c_str(), k.extra.c_str());
  }

  // Cache budget: below the three operators' total footprint (the
  // largest two fit, all three do not), so the LRU must evict.
  std::size_t total_bytes = 0;
  std::size_t smallest = SIZE_MAX;
  for (const ServiceOperator& op : ops) {
    const std::size_t bytes =
        service::build_operator(api::SolverOptions::parse(op.spec))->bytes();
    total_bytes += bytes;
    smallest = std::min(smallest, bytes);
  }
  service::ServiceConfig cfg;
  cfg.cache_budget_bytes = total_bytes - smallest / 2;
  std::printf("cache budget %.2f MiB of %.2f MiB total operator footprint\n",
              cfg.cache_budget_bytes / 1048576.0, total_bytes / 1048576.0);

  // Set-up: assembly + RHS (median of kSetupReps, each from a freed
  // heap as in run_solver_workload), plus a new service's cold cache
  // fill, the operator build each first job pays as the service reports
  // it (median of kFillReps services).  The last service runs the window.
  std::vector<double> assembly;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (ServiceOperator& op : ops) {
      op.a = sparse::CsrMatrix{};
      op.b = op.b4 = std::vector<double>{};
    }
    const auto t0 = Clock::now();
    for (std::size_t o = 0; o < ops.size(); ++o) {
      ServiceOperator& op = ops[o];
      op.a = api::make_matrix(api::SolverOptions::parse(op.spec));
      const auto n = static_cast<std::size_t>(op.a.rows);
      op.b = rhs_of(op.a, seeded_solution(n, args.seed, o, kSpread), 1);
      if (o == 0) {
        std::vector<double> x4;
        for (int t = 0; t < 4; ++t) {
          const auto xt = seeded_solution(n, args.seed, 100 + t, kBatchSpread);
          x4.insert(x4.end(), xt.begin(), xt.end());
        }
        op.b4 = rhs_of(op.a, x4, 4);
      }
    }
    assembly.push_back(seconds_between(t0, Clock::now()));
  }
  print_setup_samples("setup (assembly + RHS)", assembly);
  constexpr int kFillReps = 5;
  std::vector<double> fill;
  std::unique_ptr<service::SolverService> svc;
  Gate gate;
  Tracer tracer;
  for (int rep = 0; rep < kFillReps; ++rep) {
    svc.reset();
    svc = std::make_unique<service::SolverService>(cfg);
    // The cold-fill jobs (kinds[o] is the first kind on operator o)
    // double as the untimed warm-up.
    double build = 0.0;
    for (std::size_t o = 0; o < ops.size(); ++o) {
      const std::string spec = ops[o].spec + " " + kinds[o].extra;
      service::JobResult r = svc->wait(svc->submit(spec, ops[o].b));
      build += r.report.service.setup_seconds;
      gate.judge("cold fill " + kinds[o].name, r.report,
                 r.outcome == service::JobOutcome::kOk,
                 true_relres(ops[o].a, r.solution, ops[o].b, 1));
      if (r.outcome == service::JobOutcome::kOk) {
        gate.check_counts(kinds[o].name, exact_counts(r.report));
      }
    }
    fill.push_back(build);
  }
  print_setup_samples("setup (cold cache fill)", fill);
  const service::OperatorCache::Stats stats0 = svc->cache_stats();

  // The job stream: one fixed deck of 23 job pairs, repeated.  The
  // pairs are fixed (the 46 jobs sorted by kind, first paired with last)
  // because the jobs of a pair share a core; their order is one
  // fixed shuffle, because the LRU cache and the warm-start seeds follow
  // the job order, and a shuffle per seed changed the work per deck from
  // seed to seed.  The seed picks where in the deck the stream starts,
  // the exact solutions and the warm-start perturbations.  The window
  // closes on a deck boundary once --seconds have passed (and at least
  // 100 jobs ran, for the p90), so every run sees whole decks and
  // cold-job counts repeat exactly.
  Rng rng(args.seed ^ 0xC0FFEEull);
  std::vector<int> deck;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    deck.insert(deck.end(), static_cast<std::size_t>(kinds[k].per_deck), static_cast<int>(k));
  }
  std::vector<std::array<int, 2>> pairs;
  for (std::size_t i = 0; i < deck.size() / 2; ++i) {
    pairs.push_back({deck[i], deck[deck.size() - 1 - i]});
  }
  Rng deck_rng(0xDEC0DEull);
  for (std::size_t i = pairs.size() - 1; i > 0; --i) {
    std::swap(pairs[i], pairs[static_cast<std::size_t>(deck_rng.next() % (i + 1))]);
    if (deck_rng.next() & 1) std::swap(pairs[i][0], pairs[i][1]);
  }
  std::rotate(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(rng.next() % pairs.size()),
              pairs.end());
  std::vector<int> order;
  for (const std::array<int, 2>& p : pairs) order.insert(order.end(), p.begin(), p.end());
  struct Job {
    int kind = 0;
    api::SolverOptions opts;
    std::vector<double> rhs;
    service::JobResult result;
    double latency = 0.0;
  };
  std::size_t next = 0;
  long warm_requested = 0;
  const std::size_t min_jobs = tiny ? deck.size() : 100;

  // The next job of the seeded stream, options parsed and RHS built, so
  // that two submits follow each other with nothing in between.
  const auto prepare = [&] {
    Job j;
    j.kind = order[next++ % order.size()];
    const JobKind& k = kinds[static_cast<std::size_t>(j.kind)];
    const ServiceOperator& op = ops[static_cast<std::size_t>(k.op)];
    j.opts = api::SolverOptions::parse(op.spec + " " + k.extra);
    j.rhs = k.k == 4 ? op.b4 : op.b;
    if (k.warm) {
      // Perturbed repeat: b + A d with a seeded 1e-3-scale d.
      ++warm_requested;
      const auto n = static_cast<std::size_t>(op.a.rows);
      std::vector<double> d(n);
      for (double& v : d) v = 1e-3 * (rng.uniform() - 0.5);
      std::vector<double> ad(n);
      csr_apply(op.a, d.data(), ad.data());
      for (std::size_t i = 0; i < n; ++i) j.rhs[i] += ad[i];
    }
    return j;
  };

  // One client, two jobs outstanding, in lockstep: it submits a pair
  // back to back and waits for both (each on its own thread, so every
  // latency ends when that job's wait() returns).  The service grabs
  // whatever is queued when its previous batch ends; a client that
  // resubmits as each job returns lands in 1- or 2-job batches by
  // thread-wake races, which moved rhs_per_s by 17% between runs of
  // one seed.  Submitted in pairs, both jobs of a round nearly always
  // share one batch.  Checks run between rounds, off the window clock.
  std::vector<double> latency, queue_s, overhead_s, setup_s;
  LayerSamples layers;  // cold jobs only: their counts repeat exactly
  long rhs_solved = 0;
  long warm_started = 0;
  long jobs_done = 0;
  std::vector<std::vector<double>> kind_latency(kinds.size());
  std::vector<std::vector<double>> kind_iters(kinds.size());
  double window = 0.0;
  while (window < args.seconds || static_cast<std::size_t>(jobs_done) < min_jobs ||
         next % deck.size() != 0) {
    std::array<Job, 2> pair{prepare(), prepare()};
    std::array<std::uint64_t, 2> ids{};
    std::array<double, 2> t_done{};
    // Moved-in copies keep the two submits microseconds apart, so the
    // scheduler finds both queued.
    std::array<api::SolverOptions, 2> opts{pair[0].opts, pair[1].opts};
    std::array<std::vector<double>, 2> rhs{pair[0].rhs, pair[1].rhs};
    const double t0 = tracer.now();
    for (std::size_t i = 0; i < 2; ++i) {
      ids[i] = svc->submit(std::move(opts[i]), std::move(rhs[i]));
    }
    {
      const std::jthread second([&] {
        pair[1].result = svc->wait(ids[1]);
        t_done[1] = tracer.now();
      });
      pair[0].result = svc->wait(ids[0]);
      t_done[0] = tracer.now();
    }
    window += std::max(t_done[0], t_done[1]) - t0;

    for (std::size_t i = 0; i < 2; ++i) {
      Job& j = pair[i];
      const JobKind& k = kinds[static_cast<std::size_t>(j.kind)];
      const ServiceOperator& op = ops[static_cast<std::size_t>(k.op)];
      const service::JobResult& r = j.result;
      j.latency = t_done[i] - t0;
      tracer.add("service.job", t0, t_done[i], -1, static_cast<long>(ids[i]));
      const std::string what = "job " + std::to_string(jobs_done++) + " (" + k.name + ")";
      if (!r.error.empty()) {
        gate.exception(what, r.error);
        continue;
      }
      const bool ok = gate.judge(what, r.report, r.outcome == service::JobOutcome::kOk,
                                 true_relres(op.a, r.solution, j.rhs, k.k,
                                             args.corrupt && jobs_done == 1));
      latency.push_back(j.latency);
      queue_s.push_back(r.report.service.queue_seconds);
      overhead_s.push_back(j.latency - r.report.result.time_total());
      setup_s.push_back(r.report.service.setup_seconds);
      kind_latency[static_cast<std::size_t>(j.kind)].push_back(j.latency);
      kind_iters[static_cast<std::size_t>(j.kind)].push_back(
          static_cast<double>(r.report.result.iters));
      if (ok) rhs_solved += k.k;
      if (r.report.service.warm_started) ++warm_started;
      if (!k.warm) {
        gate.check_counts(k.name, exact_counts(r.report));
        layers.add(r.report, j.latency - r.report.service.queue_seconds);
      }
    }
  }
  const service::OperatorCache::Stats stats1 = svc->cache_stats();

  // Each kind's share of the summed job latency: how much of the time
  // jobs spend in the service goes to that kind.
  double latency_total = 0.0;
  for (double l : latency) latency_total += l;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    double kind_total = 0.0;
    for (double l : kind_latency[k]) kind_total += l;
    std::printf("kind %-18s jobs %4zu  median latency %.4f s  median iters %5.0f  "
                "latency share %.3f\n",
                kinds[k].name.c_str(), kind_latency[k].size(), median(kind_latency[k]),
                median(kind_iters[k]), kind_total / latency_total);
  }

  MetricTable t;
  if (!args.trace) {
    t.add("solve_s", median(latency), "s", latency.size(), "measured median job latency, submit -> wait()");
    t.add("solve_s.p90", quantile(latency, 0.9), "s", latency.size(), "measured p90 job latency");
    t.add("rhs_per_s", static_cast<double>(rhs_solved) / window, "1/s", latency.size(),
          "measured, window " + std::to_string(window) + " s, batch of k counts k");
    t.add("setup_s", median(assembly) + median(fill), "s", assembly.size() + fill.size(),
          "measured median of assembly + RHS, plus median cold cache fill");
    t.add("rss_peak_mb", rss_peak_mb(), "MB", 1, "measured VmHWM");
    t.add("failed_frac", static_cast<double>(gate.failed()) / gate.attempted(), "ratio",
          static_cast<std::size_t>(gate.attempted()), "base: attempted");
  } else {
    layers.report(t);
    const std::uint64_t hits = stats1.hits - stats0.hits;
    const std::uint64_t lookups = hits + stats1.misses - stats0.misses;
    t.add("service.queue_s", median(queue_s), "s", queue_s.size(), "measured median submit -> dispatch");
    t.add("service.overhead_s", median(overhead_s), "s", overhead_s.size(),
          "measured median job latency - report total");
    t.add("service.cache_hit_ratio", lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
          "ratio", lookups, "base: lookups = " + std::to_string(lookups));
    double setup_total = 0.0;
    for (double s : setup_s) setup_total += s;
    t.add("service.setup_s", setup_total / static_cast<double>(setup_s.size()), "s",
          setup_s.size(), "measured mean operator build per job (misses pay it)");
    t.add("service.warm_started_ratio",
          warm_requested > 0 ? static_cast<double>(warm_started) / warm_requested : 0.0,
          "ratio", static_cast<std::size_t>(warm_requested),
          "base: warm_start=1 jobs = " + std::to_string(warm_requested));

    // Preconditioner and cycle spans: a standalone replay of the first
    // kind through the api::Solver wrapper (service jobs take no hooks).
    const api::SolverOptions o0 =
        api::SolverOptions::parse(ops[0].spec + " " + kinds[0].extra);
    api::Solver replay(o0);
    replay.set_matrix_ref(ops[0].a, o0.matrix).set_rhs_ref(ops[0].b);
    std::vector<double> replay_wall;
    for (int i = 0; i < 3; ++i) {
      const TimedSolve s = traced_solve(replay, &tracer, 1000 + i);
      gate.judge("replay solve", s.report, s.report.resilience.outcome == "ok",
                 true_relres(ops[0].a, replay.solution(), ops[0].b, 1));
      replay_wall.push_back(s.wall);
    }
    const std::vector<double> precond_calls = tracer.durations("precond.apply");
    t.add("precond.apply_call_s", median(precond_calls), "s", precond_calls.size(),
          "replay of " + kinds[0].name + ", span per rank-0 apply");
    const std::vector<double> psetup = tracer.durations("precond.setup");
    t.add("precond.setup_s", median(psetup), "s", psetup.size(),
          "replay of " + kinds[0].name + ", factory span, rank-max");
    const std::vector<double> cycles = tracer.durations("krylov.cycle");
    t.add("krylov.cycle_s", median(cycles), "s", cycles.size(),
          "replay of " + kinds[0].name + ", span between on_restart events");
    // Widest panels in the mix: the rhs=4 batch (bs * k flat columns).
    report_replays(run_replays(ops[0].a, o0, o0.bs * 4, tiny ? 10 : 200, tracer), t);
    // Tracing a service job is a span per job: the overhead reference
    // compares the traced standalone replay with an untraced one.
    const TimedSolve plain = traced_solve(replay, nullptr, -1);
    report_references(args, median(replay_wall), plain.wall, t, gate);
  }
  gate.print_counts();
  t.print("service-mix " + std::string(args.trace ? "per-layer" : "end-to-end") +
          " metrics (" + std::to_string(jobs_done) + " jobs)");
  if (!args.trace_out.empty()) tracer.write(args.trace_out);
  t.print_json(gate.correct(), gate.attempted(), gate.failed(), {"failed_frac"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const char* tunables = std::getenv("GLIBC_TUNABLES");
    std::printf("allocator: GLIBC_TUNABLES=%s\n", tunables != nullptr ? tunables : "(unset)");
    if (args.workload == "paper-strong") {
      return run_solver_workload(args, paper_strong_spec(args.tiny));
    }
    if (args.workload == "local-cd3d") {
      return run_solver_workload(args, local_cd3d_spec(args.tiny));
    }
    if (args.workload == "service-mix") return run_service_mix(args);
    throw std::invalid_argument("unknown --workload '" + args.workload +
                                "' (paper-strong | local-cd3d | service-mix)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsbo_perf: %s\n", e.what());
    return 2;
  }
}
