// Shared processor-selection helpers for the dynamic policies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/policy.hpp"

namespace apt::policies {

/// An *idle* processor whose execution time for `node` equals the global
/// minimum (covers systems with several instances of the best category);
/// nullopt when every optimal processor is busy.
std::optional<sim::ProcId> idle_optimal_proc(const sim::SchedulerContext& ctx,
                                             dag::NodeId node);

/// An *idle* processor attaining the row's minimum execution time (the
/// lowest id, as idle_optimal_proc picks for any kernel of the row).
std::optional<sim::ProcId> idle_optimal_proc_for_row(
    const sim::SchedulerContext& ctx, sim::ReadySet::RowId row);

/// Cursor heap of for_each_ready_by_row. A policy keeps one per instance
/// and passes it to every pass, so a warm pass allocates nothing.
using RowCursorHeap = std::vector<std::pair<std::uint64_t, dag::NodeId>>;

/// Visits the ready kernels in FIFO order, as a plain front-to-back scan
/// would, but skips whole cost rows that cannot act. Each row's next kernel
/// is visited only after `row_live(row)` re-checks the row against the
/// current idle set; a false answer drops the row's remaining kernels for
/// the rest of the pass. That is exact when false means "no kernel of this
/// row would act at this idle set", because idle sets only shrink within a
/// pass (commitments consume processors, nothing frees one). `visit(node)`
/// may assign or enqueue `node` itself. The pass ends when the idle set
/// empties or every row is exhausted: O((rows + visits) log rows) through
/// a min-heap of per-row cursors keyed by sequence number.
template <class RowLive, class Visit>
void for_each_ready_by_row(sim::SchedulerContext& ctx, RowCursorHeap& heap,
                           RowLive&& row_live, Visit&& visit) {
  const sim::ReadySet& ready = ctx.ready_set();
  // The smallest sequence number is the earliest-arrived unvisited kernel.
  heap.clear();
  for (const sim::ReadySet::RowId row : ready.active_rows()) {
    const dag::NodeId head = ready.row_front(row);
    heap.emplace_back(ready.seq(head), head);
  }
  const auto later = [](const auto& a, const auto& b) {
    return a.first > b.first;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty() && !ctx.idle_processors().empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const dag::NodeId node = heap.back().second;
    heap.pop_back();
    if (!row_live(ready.row_of(node))) continue;  // the whole row is out
    const dag::NodeId next = ready.row_next(node);  // before visit unlinks
    visit(node);
    if (next != dag::kInvalidNode) {
      heap.emplace_back(ready.seq(next), next);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

}  // namespace apt::policies
