// Host-time spans recorded around calls into the simulator's public API.
//
// The traced run wraps each layer boundary it can reach from outside src/
// (scenario generation, policy construction, Policy::prepare/on_event, the
// engines' run(), sim::compute_metrics) in a span: name, start, end, parent
// span and cell id. Spans stay in memory until the run ends; self times are
// derived afterwards and the spans are written once as Chrome-trace JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "sim/policy.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kCell,          ///< one replayed cell (root of its tree)
  kCellSetup,     ///< make_policy, engine construction, and teardown
  kEngineRun,     ///< sim::Engine::run
  kStreamRun,     ///< stream::StreamEngine::run
  kPrepare,       ///< Policy::prepare
  kOnEvent,       ///< Policy::on_event
  kDagSource,     ///< one stream::DagSource call
  kMetrics,       ///< sim::compute_metrics
  kScenarioPlan,  ///< core::make_scenario_plan
  kTables,        ///< plan validation, lookup table, systems, cost models
  kCount
};

const char* span_label(SpanName name) noexcept;
/// The module a span's self time is charged to ("core", "policies", ...).
const char* span_layer(SpanName name) noexcept;

constexpr std::uint32_t kNoCell = UINT32_MAX;

struct Span {
  SpanName name = SpanName::kCell;
  std::int32_t parent = -1;  ///< index into the recorder's spans, or -1
  std::uint32_t cell = kNoCell;
  double start_us = 0.0;  ///< since the recorder was created
  double end_us = 0.0;
};

/// A deque, not a vector: growing it never copies the recorded spans, so
/// no span is charged a reallocation's time.
using SpanList = std::deque<Span>;

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the innermost open one.
  void open(SpanName name, std::uint32_t cell);
  /// Closes the innermost open span.
  void close();

  double now_us() const;
  const SpanList& spans() const noexcept { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  SpanList spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: open on construction, close on scope exit.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, SpanName name, std::uint32_t cell) : rec_(rec) {
    rec_.open(name, cell);
  }
  ~Scoped() { rec_.close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
};

/// Both leaf TransferManager timers of a profile, summed (ms).
double tm_solve_ms(const apt::obs::Profile& profile) noexcept;

/// Forwards every Policy call to `inner`, recording prepare/on_event spans.
/// Also measures how much TransferManager solve time the profile records
/// inside on_event (policies commit transfers from there), so that time can
/// be charged to `net` rather than to the policy.
class TimedPolicy final : public apt::sim::Policy {
 public:
  TimedPolicy(apt::sim::Policy& inner, SpanRecorder& rec, std::uint32_t cell,
              const apt::obs::Profile& profile)
      : inner_(inner), rec_(rec), cell_(cell), profile_(profile) {}

  std::string name() const override { return inner_.name(); }
  bool is_dynamic() const override { return inner_.is_dynamic(); }
  apt::sim::TransferSemantics transfer_semantics() const override {
    return inner_.transfer_semantics();
  }
  void prepare(const apt::dag::Dag& dag, const apt::sim::System& system,
               const apt::sim::CostModel& cost_model) override;
  void on_event(apt::sim::SchedulerContext& ctx) override;

  double tm_in_on_event_ms() const noexcept { return tm_in_on_event_ms_; }

 private:
  apt::sim::Policy& inner_;
  SpanRecorder& rec_;
  std::uint32_t cell_;
  const apt::obs::Profile& profile_;
  double tm_in_on_event_ms_ = 0.0;
};

/// Writes the spans as Chrome-trace JSON ("X" complete events in µs),
/// which Perfetto opens beside the simulator's own --trace-out timelines.
/// Every set-up and cell-root span is written; the child spans of cells
/// are written in cell order until `max_spans` is reached, which keeps the
/// file small on workloads with millions of policy passes.
void write_chrome_trace(const std::string& path, const SpanList& spans,
                        const std::string& provenance_json,
                        std::size_t max_spans);

}  // namespace perfbench
