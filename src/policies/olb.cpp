#include "policies/olb.hpp"

namespace apt::policies {

void Olb::on_event(sim::SchedulerContext& ctx) {
  const sim::ReadySet& ready = ctx.ready_set();
  for (;;) {
    const auto& idle = ctx.idle_processors();
    if (ready.empty() || idle.empty()) return;
    ctx.assign(ready.front(), idle.front());
  }
}

}  // namespace apt::policies
