#include "util/timer.hpp"

#include <stdexcept>

namespace tsbo::util {

void PhaseTimers::start(const std::string& name) {
  Bucket& b = buckets_[name];
  if (b.running) {
    throw std::logic_error("PhaseTimers: phase already running: " + name);
  }
  b.running = true;
  b.started = std::chrono::steady_clock::now();
}

void PhaseTimers::stop(const std::string& name) {
  auto it = buckets_.find(name);
  if (it == buckets_.end() || !it->second.running) {
    throw std::logic_error("PhaseTimers: phase not running: " + name);
  }
  Bucket& b = it->second;
  b.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - b.started)
          .count();
  b.count += 1;
  b.running = false;
}

void PhaseTimers::add(const std::string& name, double seconds) {
  Bucket& b = buckets_[name];
  b.seconds += seconds;
  b.count += 1;
}

double PhaseTimers::seconds(const std::string& name) const {
  auto it = buckets_.find(name);
  return it == buckets_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t PhaseTimers::count(const std::string& name) const {
  auto it = buckets_.find(name);
  return it == buckets_.end() ? 0 : it->second.count;
}

std::vector<std::string> PhaseTimers::names() const {
  std::vector<std::string> out;
  out.reserve(buckets_.size());
  for (const auto& [k, v] : buckets_) out.push_back(k);
  return out;
}

void PhaseTimers::merge_max(const PhaseTimers& other) {
  for (const auto& [k, v] : other.buckets_) {
    Bucket& b = buckets_[k];
    b.seconds = std::max(b.seconds, v.seconds);
    b.count = std::max(b.count, v.count);
  }
}

void spin_wait(double seconds) {
  if (seconds <= 0.0) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    // spin
  }
}

}  // namespace tsbo::util
