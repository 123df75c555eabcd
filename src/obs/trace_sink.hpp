// Timeline tracing: a TraceSink interface the engine feeds, plus a
// ChromeTraceWriter that renders the feed as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Inertness contract (mirrors obs/profile.hpp): engines hold a
// `TraceSink*` that is null by default and guard every emission with a
// null check. Sinks only *read* completed simulation facts — spans are
// emitted at completion/delivery/cancellation instants when every field
// is final, so no open-span state lives in the engines, and attaching a
// sink cannot perturb event order, RNG streams, or any simulated bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "net/topology.hpp"
#include "sim/system.hpp"

namespace apt::obs {

/// How a kernel span relates to straggler hedging.
enum class SpanRole : std::uint8_t {
  kSolo,          ///< no hedge episode for this kernel
  kHedgePrimary,  ///< the original attempt of a hedged kernel
  kHedgeReplica,  ///< the raced replica of a hedged kernel
};

/// One processor-occupancy span: [occupied_from, finish) on `proc`, where
/// [occupied_from, exec_start) is the input-transfer stall. Losing hedge
/// attempts arrive with cancelled == true and finish == the cancellation
/// instant.
struct KernelSpan {
  std::uint64_t instance = 0;  ///< stream app index; 0 in closed runs
  dag::NodeId node = dag::kInvalidNode;
  const char* kernel = "";  ///< kernel name; valid for the call only
  sim::ProcId proc = sim::kInvalidProc;
  sim::TimeMs occupied_from = 0.0;
  sim::TimeMs exec_start = 0.0;
  sim::TimeMs finish = 0.0;
  double noise_mult = 1.0;
  bool alternative = false;
  SpanRole role = SpanRole::kSolo;
  bool cancelled = false;  ///< losing hedge attempt, span ends at cancel
};

/// One link message: occupies every route link during [drain_start,
/// finish). `path` points into engine state and is valid for the call
/// only — sinks that buffer must copy.
struct TransferSpan {
  std::uint64_t instance = 0;
  dag::NodeId src = dag::kInvalidNode;
  dag::NodeId dst = dag::kInvalidNode;
  sim::ProcId from = sim::kInvalidProc;
  sim::ProcId to = sim::kInvalidProc;
  const net::LinkId* path = nullptr;
  std::size_t hops = 0;
  double bytes = 0.0;
  sim::TimeMs start = 0.0;
  sim::TimeMs drain_start = 0.0;
  sim::TimeMs finish = 0.0;
};

/// Zero-duration markers on the policy/lifecycle track.
enum class InstantKind : std::uint8_t {
  kArrival,      ///< stream instance admitted
  kDecision,     ///< policy committed node -> proc (detail: assign/enqueue)
  kHedgeLaunch,  ///< replica raced against a straggling primary
  kRetirement,   ///< stream instance fully completed
};

struct InstantEvent {
  InstantKind kind = InstantKind::kDecision;
  std::uint64_t instance = 0;
  dag::NodeId node = dag::kInvalidNode;  ///< kInvalidNode when app-level
  sim::ProcId proc = sim::kInvalidProc;  ///< kInvalidProc when app-level
  sim::TimeMs time = 0.0;
  const char* detail = "";  ///< e.g. "assign" / "enqueue"; call-scoped
};

/// Consumer of engine timeline events. Implementations must not mutate
/// simulation state; the engines call these mid-run.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void kernel_span(const KernelSpan& span) = 0;
  virtual void transfer_span(const TransferSpan& span) = 0;
  virtual void instant(const InstantEvent& event) = 0;
};

/// Renders the feed as Chrome trace-event JSON ("traceEvents" array of
/// "X"/"i"/"M" events, timestamps in microseconds of simulated time).
/// Track layout:
///   pid 1 "processors" — one thread per processor (kernel spans)
///   pid 2 "links"      — one thread per topology link (transfer spans;
///                        multi-hop messages draw one span per route link)
///   pid 3 "events"     — arrivals / decisions / hedge-launches /
///                        retirements, one thread per kind
/// Every event is rendered to its JSON string at emission (the spans'
/// pointer fields are call-scoped), so the writer is deterministic given
/// the same simulated run — it never reads wall clocks.
class ChromeTraceWriter final : public TraceSink {
 public:
  struct Options {
    /// Hard cap on buffered events; further spans/instants are dropped
    /// (metadata events are always kept). Guards memory on long runs.
    std::size_t max_events = 1u << 20;
    /// Decimation: keep every k-th event per category (1 = keep all).
    std::size_t every = 1;
  };

  explicit ChromeTraceWriter(const sim::System& system);
  ChromeTraceWriter(const sim::System& system, Options options);

  void kernel_span(const KernelSpan& span) override;
  void transfer_span(const TransferSpan& span) override;
  void instant(const InstantEvent& event) override;

  std::size_t event_count() const noexcept { return events_.size(); }
  /// Events discarded by the cap or the decimation knob.
  std::size_t dropped() const noexcept { return dropped_; }

  /// Writes the complete trace JSON ({"traceEvents": [...]}).
  void write(std::ostream& out) const;
  /// write() to `path`; throws std::runtime_error when unwritable.
  void write_file(const std::string& path) const;

 private:
  bool admit(std::size_t& seen);
  void push(std::string json);

  Options options_;
  std::vector<std::string> meta_;    ///< process/thread name events
  std::vector<std::string> events_;  ///< rendered span/instant events
  std::vector<std::string> proc_names_;
  std::vector<std::string> link_names_;
  std::vector<double> link_gbps_;
  std::size_t seen_spans_ = 0;
  std::size_t seen_transfers_ = 0;
  std::size_t seen_instants_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace apt::obs
