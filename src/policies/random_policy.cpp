#include "policies/random_policy.hpp"

namespace apt::policies {

void RandomPolicy::on_event(sim::SchedulerContext& ctx) {
  const sim::ReadySet& ready = ctx.ready_set();
  for (;;) {
    const auto& idle = ctx.idle_processors();
    if (ready.empty() || idle.empty()) return;
    const sim::ProcId proc =
        idle[static_cast<std::size_t>(rng_.uniform_u64(idle.size()))];
    ctx.assign(ready.front(), proc);
  }
}

}  // namespace apt::policies
