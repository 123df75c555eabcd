#include "policies/selection.hpp"

namespace apt::policies {

std::optional<sim::ProcId> idle_optimal_proc(const sim::SchedulerContext& ctx,
                                             dag::NodeId node) {
  return idle_optimal_proc_for_row(ctx, ctx.ready_set().row_of(node));
}

std::optional<sim::ProcId> idle_optimal_proc_for_row(
    const sim::SchedulerContext& ctx, sim::ReadySet::RowId row) {
  const sim::ReadySet& ready = ctx.ready_set();
  const sim::TimeMs* exec = ready.exec_row(row);
  const sim::TimeMs best = ready.min_exec(row);
  // idle_processors() is the idle subset ascending by id: the lowest idle
  // processor attaining the minimum, without touching the busy majority.
  for (const sim::ProcId p : ctx.idle_processors()) {
    if (exec[p] == best) return p;
  }
  return std::nullopt;
}

}  // namespace apt::policies
