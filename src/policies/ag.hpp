// Adaptive Greedy (Wu, Shi & Hong [18]; thesis §2.5.3, Eq. 1–2).
//
// AG maintains a FIFO queue per processor and greedily enqueues each
// arriving kernel where its estimated total waiting time
//     τ_g = τ_g^q (queueing delay) + τ_g^d (input-data transfer delay)
// is smallest. Two queueing-delay estimators are provided:
//  * SumOfQueued (default): remaining time of the running kernel plus the
//    lookup-table times of everything already queued — the deterministic
//    reading of "the sum of the compute times for all kernels already in
//    the queue".
//  * RecentAverage: N_g · τ_g^k, the paper's Eq. (2) with τ_g^k the mean
//    execution time of the last k completions on that processor.
//
// The comm_aware variant ("AG-net") extends τ_g^d from the unloaded route
// estimate to TransferEstimate::total_ms(): the processor backlog PLUS the
// predicted drain of the route links' in-flight traffic at current max-min
// rates — AG's queue-length idea applied to the fabric as well as the
// processors. On an ideal topology the queueing term is always 0, so
// AG-net degenerates to AG bit-for-bit.
//
// SumOfQueued without the O(queue) fold. The exact rule picks the first
// processor with the smallest τ = fl(queued_work_ms + t), t the transfer
// term. AG first reads SchedulerContext::queued_work_bounds, O(1) bounds
// lo <= queued_work_ms <= hi, and forms τ_lo = fl(lo + t) and τ_hi =
// fl(hi + t); rounding to nearest is monotone, so τ_lo <= τ <= τ_hi. Let c
// be the first processor with the smallest τ_hi. When every lower-indexed
// processor has τ_lo > τ_hi[c] and every higher-indexed one τ_lo >=
// τ_hi[c], c is exactly the processor the exact rule picks, and AG commits
// it. Otherwise (a near-tie within the bounds' O(ulp·queue) width) AG runs
// the exact rule over the folds. Decisions are bit-identical either way;
// RecentAverage has no fold and always takes the exact rule.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/policy.hpp"

namespace apt::policies {

enum class AgQueueEstimate { SumOfQueued, RecentAverage };

struct AgOptions {
  AgQueueEstimate estimate = AgQueueEstimate::SumOfQueued;
  std::size_t history_window = 5;  ///< the k of Eq. (2)

  /// Rank with the backlog-aware transfer reading (total_ms()) instead of
  /// the unloaded stall. Names the policy "AG-net".
  bool comm_aware = false;
};

class AdaptiveGreedy final : public sim::Policy {
 public:
  AdaptiveGreedy() = default;
  explicit AdaptiveGreedy(AgOptions options);

  std::string name() const override {
    return options_.comm_aware ? "AG-net" : "AG";
  }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override;

  const AgOptions& options() const noexcept { return options_; }

 private:
  sim::TimeMs queue_delay_ms(const sim::SchedulerContext& ctx,
                             sim::ProcId proc) const;
  /// The processor `node` goes to: argmin τ, first on ties.
  sim::ProcId choose(const sim::SchedulerContext& ctx, dag::NodeId node);

  AgOptions options_;
  std::vector<sim::TimeMs> transfer_;  ///< t per processor, reused
  std::vector<sim::TimeMs> tau_lo_;    ///< τ_lo per processor, reused
};

}  // namespace apt::policies
