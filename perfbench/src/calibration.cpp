#include "calibration.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNodes = 20000;
constexpr std::uint32_t kMaxFanOut = 3;     ///< successors per node: 0..2
constexpr std::uint32_t kSpan = 50;         ///< successors lie within this
constexpr std::uint32_t kSources = 64;      ///< events at the start
constexpr std::uint32_t kEvents = 60000;    ///< events popped at most

struct Xorshift {
  std::uint64_t s = 12345;
  std::uint64_t operator()() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct Event {
  double time;
  std::uint32_t node;
  bool operator>(const Event& o) const { return time > o.time; }
};

/// One repetition of the reference: a list scheduler over a fixed random
/// graph. Each popped event records its finish time and readies the node's
/// successors; the cheapest ready node, found by a linear scan, becomes the
/// next event. Returns a checksum of the schedule.
std::uint64_t reference_schedule() {
  Xorshift rng;
  std::vector<std::vector<std::uint32_t>> succ(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const std::uint64_t fan_out = rng() % kMaxFanOut;
    for (std::uint64_t j = 0; j < fan_out; ++j)
      succ[i].push_back(static_cast<std::uint32_t>((i + 1 + rng() % kSpan) %
                                                   kNodes));
  }
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  for (std::uint32_t i = 0; i < kSources; ++i)
    events.push({static_cast<double>(rng() % 1000), i});
  std::map<std::uint32_t, double> finish;
  std::vector<std::uint32_t> ready;
  double total = 0.0;
  for (std::uint32_t n = 0; n < kEvents && !events.empty(); ++n) {
    const Event e = events.top();
    events.pop();
    finish[e.node] = e.time;
    ready.insert(ready.end(), succ[e.node].begin(), succ[e.node].end());
    if (ready.empty()) continue;
    std::size_t best = 0;
    double best_cost = 0.0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const double cost =
          e.time + static_cast<double>((ready[i] * 2654435761u) % 997u);
      if (i == 0 || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    const std::uint32_t node = ready[best];
    ready[best] = ready.back();
    ready.pop_back();
    events.push({best_cost + 1.0, node});
    total += best_cost;
  }
  return static_cast<std::uint64_t>(total) * 31u + finish.size();
}

}  // namespace

double Calibration::sample() {
  std::size_t reps = 0;
  double elapsed = 0.0;
  const auto t0 = Clock::now();
  do {
    const std::uint64_t sum = reference_schedule();
    if (samples_ == 0 && reps == 0) checksum_ = sum;
    ok_ = ok_ && sum == checksum_;
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < kBlockSeconds);
  const double per_rep = elapsed / static_cast<double>(reps);
  fastest_ = samples_ == 0 ? per_rep : std::min(fastest_, per_rep);
  slowest_ = samples_ == 0 ? per_rep : std::max(slowest_, per_rep);
  ++samples_;
  return per_rep;
}

}  // namespace perfbench
