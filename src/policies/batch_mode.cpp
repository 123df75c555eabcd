#include "policies/batch_mode.hpp"

#include <cmath>
#include <limits>

namespace apt::policies {

const char* to_string(BatchRule rule) noexcept {
  switch (rule) {
    case BatchRule::MinMin: return "Min-Min";
    case BatchRule::MaxMin: return "Max-Min";
    case BatchRule::Sufferage: return "Sufferage";
  }
  return "?";
}

namespace {

struct Candidate {
  sim::ProcId best_proc = sim::kInvalidProc;
  sim::TimeMs best_cost = std::numeric_limits<sim::TimeMs>::infinity();
  sim::TimeMs second_cost = std::numeric_limits<sim::TimeMs>::infinity();

  sim::TimeMs sufferage() const noexcept {
    // With a single available processor there is no second option and the
    // kernel cannot "suffer" — 0 makes every kernel tie (FIFO wins).
    return std::isinf(second_cost) ? 0.0 : second_cost - best_cost;
  }
};

Candidate evaluate(const sim::SchedulerContext& ctx, dag::NodeId node,
                   const std::vector<sim::ProcId>& idle) {
  Candidate c;
  for (const sim::ProcId proc : idle) {
    const sim::TimeMs cost = ctx.exec_time_ms(node, proc) +
                             ctx.transfer_estimate(node, proc).stall_ms;
    if (cost < c.best_cost) {
      c.second_cost = c.best_cost;
      c.best_cost = cost;
      c.best_proc = proc;
    } else if (cost < c.second_cost) {
      c.second_cost = cost;
    }
  }
  return c;
}

}  // namespace

void BatchMode::on_event(sim::SchedulerContext& ctx) {
  const sim::ReadySet& ready = ctx.ready_set();
  for (;;) {
    const auto& idle = ctx.idle_processors();
    if (ready.empty() || idle.empty()) return;

    dag::NodeId chosen = dag::kInvalidNode;
    Candidate chosen_cand;
    double chosen_key = 0.0;
    bool first = true;
    for (dag::NodeId node = ready.front(); node != dag::kInvalidNode;
         node = ready.next(node)) {
      const Candidate cand = evaluate(ctx, node, idle);
      double key = 0.0;
      bool better = false;
      switch (rule_) {
        case BatchRule::MinMin:
          key = cand.best_cost;
          better = first || key < chosen_key;
          break;
        case BatchRule::MaxMin:
          key = cand.best_cost;
          better = first || key > chosen_key;
          break;
        case BatchRule::Sufferage:
          key = cand.sufferage();
          better = first || key > chosen_key;
          break;
      }
      if (better) {
        chosen = node;
        chosen_cand = cand;
        chosen_key = key;
        first = false;
      }
    }
    ctx.assign(chosen, chosen_cand.best_proc);
  }
}

}  // namespace apt::policies
