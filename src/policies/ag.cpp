#include "policies/ag.hpp"

#include <stdexcept>

namespace apt::policies {

AdaptiveGreedy::AdaptiveGreedy(AgOptions options) : options_(options) {
  if (options_.history_window == 0)
    throw std::invalid_argument("AdaptiveGreedy: history_window must be >= 1");
}

sim::TimeMs AdaptiveGreedy::queue_delay_ms(const sim::SchedulerContext& ctx,
                                           sim::ProcId proc) const {
  switch (options_.estimate) {
    case AgQueueEstimate::SumOfQueued:
      return ctx.queued_work_ms(proc);
    case AgQueueEstimate::RecentAverage: {
      const std::size_t in_flight =
          ctx.queue_length(proc) + (ctx.is_idle(proc) ? 0 : 1);
      return static_cast<double>(in_flight) *
             ctx.recent_avg_exec_ms(proc, options_.history_window);
    }
  }
  return 0.0;
}

void AdaptiveGreedy::on_event(sim::SchedulerContext& ctx) {
  // AG commits every ready kernel to some processor queue immediately —
  // it never leaves work unqueued (thesis Table 2: "never waits" = No, but
  // the *scheduler* always acts; waiting happens inside the queues).
  // Walk I in place: enqueue() unlinks only the kernel it commits.
  const sim::ReadySet& ready = ctx.ready_set();
  for (dag::NodeId node = ready.front(); node != dag::kInvalidNode;) {
    const dag::NodeId next = ready.next(node);
    ctx.enqueue(node, choose(ctx, node));
    node = next;
  }
}

sim::ProcId AdaptiveGreedy::choose(const sim::SchedulerContext& ctx,
                                   dag::NodeId node) {
  const sim::ProcId procs = ctx.system().proc_count();
  transfer_.resize(procs);
  for (sim::ProcId proc = 0; proc < procs; ++proc) {
    // τ_g^d: comm-blind AG plans against the unloaded route (stall_ms,
    // the legacy scalar); AG-net adds the predicted link backlog — the
    // fabric analogue of τ_g^q.
    const sim::TransferEstimate est = ctx.transfer_estimate(node, proc);
    transfer_[proc] = options_.comm_aware ? est.total_ms() : est.stall_ms;
  }
  if (options_.estimate == AgQueueEstimate::SumOfQueued) {
    // The filter (see ag.hpp): certify the first smallest τ_hi from the
    // O(1) bounds, or fall through to the folds.
    tau_lo_.resize(procs);
    sim::ProcId cand = 0;
    sim::TimeMs cand_hi = 0.0;
    for (sim::ProcId proc = 0; proc < procs; ++proc) {
      const sim::SchedulerContext::WorkBounds b = ctx.queued_work_bounds(proc);
      tau_lo_[proc] = b.lo + transfer_[proc];
      const sim::TimeMs tau_hi = b.hi + transfer_[proc];
      if (proc == 0 || tau_hi < cand_hi) {
        cand = proc;
        cand_hi = tau_hi;
      }
    }
    bool certified = true;
    for (sim::ProcId proc = 0; proc < procs && certified; ++proc) {
      if (proc < cand) certified = tau_lo_[proc] > cand_hi;
      if (proc > cand) certified = tau_lo_[proc] >= cand_hi;
    }
    if (certified) return cand;
  }
  sim::ProcId best = 0;
  sim::TimeMs best_tau = 0.0;
  for (sim::ProcId proc = 0; proc < procs; ++proc) {
    const sim::TimeMs tau = queue_delay_ms(ctx, proc) + transfer_[proc];
    if (proc == 0 || tau < best_tau) {
      best = proc;
      best_tau = tau;
    }
  }
  return best;
}

}  // namespace apt::policies
