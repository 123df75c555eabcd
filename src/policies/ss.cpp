#include "policies/ss.hpp"

#include "util/stats.hpp"

namespace apt::policies {

void SerialScheduling::on_event(sim::SchedulerContext& ctx) {
  const sim::ReadySet& ready = ctx.ready_set();
  for (;;) {
    const auto& idle = ctx.idle_processors();
    if (ready.empty() || idle.empty()) return;

    // Highest stddev of execution time across the currently idle
    // processors wins; FIFO order breaks ties.
    dag::NodeId best_node = dag::kInvalidNode;
    double best_stddev = -1.0;
    for (dag::NodeId node = ready.front(); node != dag::kInvalidNode;
         node = ready.next(node)) {
      util::RunningStats stats;
      for (const sim::ProcId proc : idle) stats.add(ctx.exec_time_ms(node, proc));
      if (stats.stddev() > best_stddev) {
        best_stddev = stats.stddev();
        best_node = node;
      }
    }

    sim::ProcId best_proc = idle.front();
    for (const sim::ProcId proc : idle) {
      if (ctx.exec_time_ms(best_node, proc) <
          ctx.exec_time_ms(best_node, best_proc))
        best_proc = proc;
    }
    ctx.assign(best_node, best_proc);
  }
}

}  // namespace apt::policies
