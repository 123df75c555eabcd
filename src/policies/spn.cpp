#include "policies/spn.hpp"

namespace apt::policies {

void Spn::on_event(sim::SchedulerContext& ctx) {
  const sim::ReadySet& ready = ctx.ready_set();
  for (;;) {
    const auto& idle = ctx.idle_processors();
    if (ready.empty() || idle.empty()) return;

    // Kernels of one cost row tie on every processor, and ties resolve to
    // the earliest-arrived kernel, so only each row's head can win: scan
    // row heads × idle processors. Ties across rows go to the smaller
    // arrival stamp (FIFO), within a row to the lowest processor id.
    dag::NodeId best_node = dag::kInvalidNode;
    sim::ProcId best_proc = sim::kInvalidProc;
    sim::TimeMs best_time = 0.0;
    std::uint64_t best_seq = 0;
    for (const sim::ReadySet::RowId row : ready.active_rows()) {
      const dag::NodeId head = ready.row_front(row);
      const std::uint64_t seq = ready.seq(head);
      const sim::TimeMs* exec = ready.exec_row(row);
      for (const sim::ProcId proc : idle) {
        const sim::TimeMs t = exec[proc];
        if (best_node == dag::kInvalidNode || t < best_time ||
            (t == best_time && seq < best_seq)) {
          best_node = head;
          best_proc = proc;
          best_time = t;
          best_seq = seq;
        }
      }
    }
    ctx.assign(best_node, best_proc);
  }
}

}  // namespace apt::policies
