// The structured policy↔fabric estimation contract.
//
// A single number — the unloaded stall if a kernel were assigned somewhere
// now — hides everything the fabric actually knows: which link the
// estimate is pinned to, how much traffic is already queued on it, and how
// wide the service-time distribution around the point estimate is.
// TransferEstimate carries all of it: the engine fills it from live
// net::TransferManager state (predicted drain of each route link's
// in-flight bytes at the CURRENT max-min rates — not the unloaded
// bottleneck-bandwidth figure), and policies choose which reading to act
// on:
//
//   stall_ms          the classic unloaded estimate — what comm-blind
//                     policies rank with
//   total_ms()        stall + predicted link queueing: the backlog-aware
//                     reading AG-net and APT-C rank with
//   quantile_ms(q)    tail-aware reading: the queueing prediction scaled
//                     by the q-quantile of the run's NoiseSpec multiplier
//                     mixture (the deterministic unloaded stall does not
//                     widen) — what APT-Q ranks by at q = 0.95
#pragma once

#include "net/topology.hpp"
#include "sim/noise.hpp"
#include "sim/system.hpp"

namespace apt::sim {

/// What assigning a ready kernel to a processor now would cost in input
/// movement, decomposed. Returned by SchedulerContext::transfer_estimate;
/// the worst (max) predecessor edge determines every field, matching the
/// worst-case semantics of the legacy scalar.
struct TransferEstimate {
  /// Unloaded estimate: max over predecessors of the edge transfer time
  /// from the predecessor's processor — on a contended topology the route
  /// head latency plus bytes over the route's bottleneck bandwidth (0 when
  /// every input is local).
  TimeMs stall_ms = 0.0;

  /// Predicted extra wait from traffic already in flight: max over
  /// predecessor routes of the longest per-link drain time (each link's
  /// slowest in-flight message at current max-min rates). Always 0 on
  /// ideal topologies and on an idle fabric.
  TimeMs link_queueing_ms = 0.0;

  /// The link the queueing prediction is pinned to: the most-backlogged
  /// link across the predecessor routes, or — on an idle fabric — the
  /// bottleneck (minimum-bandwidth, earliest-hop on ties) link of the
  /// worst predecessor's route. net::kNoLink when every input is local or
  /// the topology is ideal.
  net::LinkId bottleneck_link = net::kNoLink;

  /// The run's service-time noise spec (disabled on noise-off runs), the
  /// distribution quantile_ms prices tails against.
  NoiseSpec noise;

  /// Backlog-aware point estimate: unloaded stall plus predicted queueing.
  TimeMs total_ms() const noexcept { return stall_ms + link_queueing_ms; }

  /// Tail-aware estimate. The unloaded stall is deterministic; the
  /// queueing prediction is not — the backlog drain assumes today's rates
  /// hold, while the traffic ahead is driven by kernels whose realized
  /// times follow the noise distribution. As a planning heuristic the
  /// uncertain component is therefore widened by the q-quantile of the
  /// run's noise multiplier and the deterministic one is left fixed.
  /// Equal to total_ms() when noise is disabled.
  TimeMs quantile_ms(double q) const {
    return stall_ms + link_queueing_ms * noise_quantile_multiplier(noise, q);
  }
};

}  // namespace apt::sim
