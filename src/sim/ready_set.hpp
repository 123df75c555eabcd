// The engine's ready set I, kept incrementally and bucketed by cost row.
//
// Every ready kernel sits on one FIFO list (arrival order, each entry
// stamped with a strictly increasing sequence number) and on the list of
// its *cost row*: the kernels whose exec-time rows over the processors are
// bitwise equal. Rows are interned once per DAG shape, engine-wide, so a
// paper-LUT workload has at most ~25 of them however deep the backlog.
//
// That is what lets the MET family decide in O(rows) instead of O(ready):
// whether p_min is idle, and whether any idle processor is within APT's
// threshold on exec time alone, are facts of the row, not of the kernel.
// Policies merge the per-row lists by sequence number to visit kernels in
// the exact FIFO order a plain scan would, skipping rows that cannot act
// (see policies::for_each_ready_by_row).
//
// Insert and erase are O(1); every accessor below is inline and
// non-virtual. Per-slot arrays are indexed by the engine's global slot id
// and grow with it; a slot carries its row id for as long as it is live,
// ready or not.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/graph.hpp"
#include "sim/system.hpp"

namespace apt::sim {

class ReadySet {
 public:
  using RowId = std::uint32_t;
  static constexpr RowId kNoRow = static_cast<RowId>(-1);

  explicit ReadySet(std::size_t proc_count) : procs_(proc_count) {}

  // --- cost rows --------------------------------------------------------

  /// Id of the row bitwise equal to `exec` (one time per processor), adding
  /// it on first sight together with its minimum and lowest argmin.
  RowId intern_row(const TimeMs* exec);

  std::size_t row_count() const noexcept { return rows_.size(); }

  /// The row's execution time on every processor: `exec_row(r)[proc]`.
  const TimeMs* exec_row(RowId r) const {
    return row_exec_.data() + static_cast<std::size_t>(r) * procs_;
  }
  /// Minimum over the row, and the lowest processor id attaining it.
  TimeMs min_exec(RowId r) const { return rows_[r].min_exec; }
  ProcId min_proc(RowId r) const { return rows_[r].min_proc; }

  // --- slots ------------------------------------------------------------

  /// Grows the per-slot arrays to cover slot ids below `slots`.
  void resize(std::size_t slots) {
    slot_row_.resize(slots, kNoRow);
    seq_.resize(slots, 0);
    fifo_links_.resize(slots);
    row_links_.resize(slots);
  }

  /// Binds a (not ready) slot to its cost row; the binding lasts until the
  /// slot is bound again.
  void set_row(dag::NodeId slot, RowId row) { slot_row_[slot] = row; }
  RowId row_of(dag::NodeId slot) const { return slot_row_[slot]; }

  /// Appends `slot` at the FIFO tail and at the tail of its row's list.
  void insert(dag::NodeId slot) {
    const RowId r = slot_row_[slot];
    Row& row = rows_[r];
    seq_[slot] = ++last_seq_;
    push_back(fifo_links_, fifo_, slot);
    push_back(row_links_, row.list, slot);
    if (row.size++ == 0) {
      row.active_pos = active_.size();
      active_.push_back(r);
    }
    ++size_;
  }

  /// Unlinks a ready `slot` from both lists.
  void erase(dag::NodeId slot) {
    Row& row = rows_[slot_row_[slot]];
    unlink(fifo_links_, fifo_, slot);
    unlink(row_links_, row.list, slot);
    if (--row.size == 0) {
      const RowId moved = active_.back();
      active_[row.active_pos] = moved;
      rows_[moved].active_pos = row.active_pos;
      active_.pop_back();
    }
    seq_[slot] = 0;
    --size_;
  }

  bool contains(dag::NodeId slot) const {
    return slot < seq_.size() && seq_[slot] != 0;
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// FIFO walk: front() then next() until dag::kInvalidNode.
  dag::NodeId front() const noexcept { return fifo_.head; }
  dag::NodeId next(dag::NodeId slot) const { return fifo_links_[slot].next; }
  /// Arrival stamp of a ready slot: FIFO order is ascending seq.
  std::uint64_t seq(dag::NodeId slot) const { return seq_[slot]; }

  /// Rows holding at least one ready slot, in no particular order.
  const std::vector<RowId>& active_rows() const noexcept { return active_; }
  /// Per-row FIFO walk: row_front() then row_next().
  dag::NodeId row_front(RowId r) const { return rows_[r].list.head; }
  dag::NodeId row_next(dag::NodeId slot) const {
    return row_links_[slot].next;
  }

 private:
  /// One doubly linked list threaded through a per-slot Links array.
  struct List {
    dag::NodeId head = dag::kInvalidNode;
    dag::NodeId tail = dag::kInvalidNode;
  };
  struct Links {
    dag::NodeId prev = dag::kInvalidNode;
    dag::NodeId next = dag::kInvalidNode;
  };
  struct Row {
    TimeMs min_exec = 0.0;
    ProcId min_proc = 0;
    List list;
    std::size_t size = 0;
    std::size_t active_pos = 0;  ///< index in active_ while size > 0
  };

  static void push_back(std::vector<Links>& links, List& list,
                        dag::NodeId slot) {
    links[slot] = Links{list.tail, dag::kInvalidNode};
    if (list.tail == dag::kInvalidNode) {
      list.head = slot;
    } else {
      links[list.tail].next = slot;
    }
    list.tail = slot;
  }

  static void unlink(std::vector<Links>& links, List& list,
                     dag::NodeId slot) {
    const Links l = links[slot];
    if (l.prev == dag::kInvalidNode) {
      list.head = l.next;
    } else {
      links[l.prev].next = l.next;
    }
    if (l.next == dag::kInvalidNode) {
      list.tail = l.prev;
    } else {
      links[l.next].prev = l.prev;
    }
  }

  std::size_t procs_;
  std::vector<TimeMs> row_exec_;  ///< [row * procs_ + proc]
  std::vector<Row> rows_;
  std::vector<std::uint64_t> row_hash_;  ///< [row] hash of its bytes
  /// Open-addressing index over rows_ (linear probing, kNoRow = empty,
  /// at most half full); only intern_row reads it.
  std::vector<RowId> row_index_;
  std::vector<RowId> active_;

  // Per-slot arrays.
  std::vector<RowId> slot_row_;     ///< bound cost row
  std::vector<std::uint64_t> seq_;  ///< arrival stamp, 0 = not ready
  std::vector<Links> fifo_links_;   ///< in fifo_
  std::vector<Links> row_links_;    ///< in the slot's row list
  List fifo_;
  std::size_t size_ = 0;
  std::uint64_t last_seq_ = 0;
};

}  // namespace apt::sim
