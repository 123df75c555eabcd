#include "core/apt.hpp"

#include <limits>
#include <optional>
#include <stdexcept>

#include "policies/selection.hpp"
#include "util/string_utils.hpp"

namespace apt::core {

Apt::Apt(AptOptions options) : options_(options) {
  if (!(options_.alpha >= 1.0))
    throw std::invalid_argument("Apt: alpha must be >= 1 (Eq. 8)");
  if (options_.rank_quantile < 0.0 || options_.rank_quantile >= 1.0)
    throw std::invalid_argument("Apt: rank_quantile must be in [0, 1)");
}

std::string Apt::name() const {
  const char* head = options_.rank_quantile > 0.0 ? "APT-Q"
                     : options_.comm_aware        ? "APT-C"
                                                  : "APT";
  std::string n = std::string(head) + "(alpha=" +
                  util::format_double(options_.alpha, 2) + ")";
  if (!options_.transfer_aware) n += "[no-transfer]";
  if (options_.consider_remaining_time) n += "[remaining]";
  return n;
}

void Apt::prepare(const dag::Dag&, const sim::System&,
                  const sim::CostModel&) {
  quantile_mult_.reset();
}

double Apt::quantile_mult(const sim::SchedulerContext& ctx) const {
  if (!quantile_mult_) {
    quantile_mult_ = options_.rank_quantile > 0.0
                         ? sim::noise_quantile_multiplier(
                               ctx.noise(), options_.rank_quantile)
                         : 1.0;
  }
  return *quantile_mult_;
}

void Apt::on_event(sim::SchedulerContext& ctx) {
  // Saturation fast path: both branches below act only through an idle
  // processor, and assignments only ever consume idle processors — so with
  // the idle set empty the whole pass is a no-op.
  if (ctx.idle_processors().empty()) return;
  const sim::ReadySet& ready = ctx.ready_set();
  // The FIFO scan of Algorithm 1, bucketed by cost row. Whether a kernel's
  // p_min is idle, and whether any idle processor passes the threshold on
  // execution time alone, depend only on its row; a row failing both can
  // act through no kernel until a processor frees, so it is dropped whole.
  std::optional<sim::ProcId> pmin;  // the row's idle p_min, for the visit
  policies::for_each_ready_by_row(
      ctx, row_cursors_,
      [&](sim::ReadySet::RowId row) {
        pmin = policies::idle_optimal_proc_for_row(ctx, row);
        if (pmin) return true;
        // Every per-kernel cost below is exec·m_q plus a transfer term
        // >= 0, so exec·m_q <= α·x·m_q (the same float expressions) is
        // necessary for any kernel of the row to find an alternative.
        const double mq = quantile_mult(ctx);
        const sim::TimeMs* exec = ready.exec_row(row);
        const sim::TimeMs threshold = options_.alpha * ready.min_exec(row) * mq;
        for (const sim::ProcId proc : ctx.idle_processors()) {
          if (exec[proc] * mq <= threshold) return true;
        }
        return false;
      },
      [&](dag::NodeId node) {
        // Line 5-8 of Algorithm 1: the best processor, taken when
        // available.
        if (pmin) {
          ctx.assign(node, *pmin);
          return;
        }
        // Line 10-14: the alternative processor within the threshold.
        // APT-Q scales BOTH sides by m_q: a uniform multiplier cancels in a
        // pure argmin, so the quantile only bites through the mixed
        // deterministic / noisy sum — exec and queueing widen with the
        // tail, the unloaded stall does not.
        const double mq = quantile_mult(ctx);
        const sim::TimeMs* exec = ready.exec_row(ready.row_of(node));
        const sim::TimeMs x = ready.min_exec(ready.row_of(node));
        const sim::TimeMs threshold = options_.alpha * x * mq;

        std::optional<sim::ProcId> alt;
        sim::TimeMs alt_cost = std::numeric_limits<sim::TimeMs>::infinity();
        for (const sim::ProcId proc : ctx.idle_processors()) {
          sim::TimeMs cost = exec[proc] * mq;
          // The transfer term only adds (>= 0): a processor over the
          // threshold on execution alone needs no transfer estimate.
          if (!(cost <= threshold)) continue;
          if (options_.rank_quantile > 0.0) {
            cost += ctx.transfer_estimate(node, proc)
                        .quantile_ms(options_.rank_quantile);
          } else if (options_.comm_aware) {
            cost += ctx.transfer_estimate(node, proc).total_ms();
          } else if (options_.transfer_aware) {
            // The comm-blind reading: bit-identical to the legacy scalar.
            cost += ctx.transfer_estimate(node, proc).stall_ms;
          }
          if (cost <= threshold && cost < alt_cost) {
            alt = proc;
            alt_cost = cost;
          }
        }
        if (!alt) return;  // within-threshold alternative absent: wait

        if (options_.consider_remaining_time) {
          // Future-work refinement: waiting costs (remaining time on p_min)
          // + x; prefer waiting when it beats the alternative.
          const sim::ProcId best = ready.min_proc(ready.row_of(node));
          const sim::TimeMs wait_cost = (ctx.busy_until(best) - ctx.now()) + x;
          if (wait_cost <= alt_cost) return;
        }
        ctx.assign(node, *alt, /*alternative=*/true);
      });
}

}  // namespace apt::core
