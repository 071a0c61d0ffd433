#pragma once
// Wall-clock and hierarchical phase timers.
//
// The benchmark harnesses need the same per-phase accounting the paper
// reports (SpMV / Ortho / Total, and within Ortho: dot-products,
// vector-updates, Cholesky+TRSM).  PhaseTimers is a small named-section
// accumulator; each rank of the SPMD runtime owns one, and the harness
// reduces them (max across ranks, as MPI codes conventionally report).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsbo::util {

/// Monotonic wall-clock stopwatch with microsecond-ish resolution.
class WallTimer {
 public:
  WallTimer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Named accumulating phase timers: start/stop pairs add into a bucket.
///
/// Phases are flat names by convention written hierarchically
/// ("ortho/dot", "ortho/update", "spmv", ...).  Not thread-safe: each
/// SPMD rank owns its own instance.
class PhaseTimers {
 public:
  /// Starts (or restarts) the named phase.  Phases may not be nested
  /// with the same name.
  void start(const std::string& name);

  /// Stops the named phase and accumulates the elapsed time.
  void stop(const std::string& name);

  /// Adds raw seconds into a bucket (used when a cost model injects
  /// virtual time).
  void add(const std::string& name, double seconds);

  /// Accumulated seconds of a phase; zero when never started.
  [[nodiscard]] double seconds(const std::string& name) const;

  /// Number of start/stop (or add) events recorded for the phase.
  [[nodiscard]] std::uint64_t count(const std::string& name) const;

  /// All phase names seen, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  void clear() { buckets_.clear(); }

  /// Element-wise merge of another timer set, taking the *maximum*
  /// per-phase time (the MPI convention for reporting the critical
  /// path across ranks).
  void merge_max(const PhaseTimers& other);

 private:
  struct Bucket {
    double seconds = 0.0;
    std::uint64_t count = 0;
    std::chrono::steady_clock::time_point started{};
    bool running = false;
  };
  std::map<std::string, Bucket> buckets_;
};

/// RAII guard: times a region into `timers[name]`.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimers& timers, std::string name)
      : timers_(timers), name_(std::move(name)) {
    timers_.start(name_);
  }
  ~ScopedPhase() { timers_.stop(name_); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimers& timers_;
  std::string name_;
};

/// Busy-waits for the given duration with sub-microsecond fidelity.
/// Used by the network cost model to inject latency; sleep_for() is far
/// too coarse at the 5-50 us scale of interconnect latencies.
void spin_wait(double seconds);

}  // namespace tsbo::util
