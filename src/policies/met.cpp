#include "policies/met.hpp"

#include "policies/selection.hpp"

namespace apt::policies {

void Met::on_event(sim::SchedulerContext& ctx) {
  // Saturation fast path: MET acts only through an idle p_min, and
  // assignments only consume idle processors — an empty idle set makes
  // the pass a provable no-op.
  if (ctx.idle_processors().empty()) return;
  // The FIFO scan, bucketed: whether some p_min is idle is a fact of the
  // kernel's cost row, so a row whose every optimal processor is busy
  // waits as a whole and a live row hands its kernels over head first.
  std::optional<sim::ProcId> pmin;  // the live row's idle p_min
  for_each_ready_by_row(
      ctx, row_cursors_,
      [&](sim::ReadySet::RowId row) {
        pmin = idle_optimal_proc_for_row(ctx, row);
        return pmin.has_value();
      },
      [&](dag::NodeId node) { ctx.assign(node, *pmin); });
}

}  // namespace apt::policies
