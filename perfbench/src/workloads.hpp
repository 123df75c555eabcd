// The benchmark's workloads, their timed batches, and the traced replay.
//
// A workload is one fixed batch of simulation cells run in a closed loop by
// one caller: a scenario sweep through core::BatchRunner::run, or a stream
// grid through core::run_stream_plan (the entry points behind `aptsim sweep`
// and `aptsim stream`). The seed derives every generated input; the
// simulator receives only those inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/stream_plan.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Size { kFull, kTiny };

struct Workload {
  std::string name;
  bool stream = false;
  /// Closed workloads: the sweep's graph axes, policies and link rates.
  apt::core::ScenarioSweepSpec sweep;
  std::vector<double> rates_gbps;
  /// Stream workloads: the plan, with base_seed and table still unset.
  apt::core::StreamPlan plan;
  /// Stream workloads: the synthetic platform, when not the paper table.
  bool synthetic = false;
  apt::lut::SyntheticLutSpec synthetic_spec;
  std::vector<std::string> policies;
};

/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, Size size);
/// Every parameter of the workload as a JSON object (for provenance).
std::string workload_json(const Workload& w);

/// The inputs of one seeded batch, built by make_batch(). The batch runs as
/// units, each one call of the entry point: the closed sweep one plan per
/// (link rate, family), a stream one plan per policy. Concatenated, the
/// units' cells are the whole plan's cells, in its order, with identical
/// results. Timing units rather than the whole batch keeps each pass short
/// beside the calibration samples that scale it (see README.md).
struct Batch {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::vector<apt::core::ExperimentPlan> closed;  ///< closed workloads
  std::vector<apt::core::StreamPlan> stream;      ///< stream workloads
  std::size_t units() const;
  std::size_t unit_cells(std::size_t unit) const;
  std::size_t cells() const;
};

/// Builds the seeded units: their plans, the up-front graphs and the
/// synthetic lookup table. With set_up_unit() for every unit, this is the
/// set-up: the work done before the first cell.
Batch make_batch(const Workload& w, std::uint64_t seed);

/// Does, and discards, the work the unit's entry-point call does before its
/// first cell: plan validation, the paper table when the plan has none,
/// systems (topology routes) and cost models.
void set_up_unit(const Batch& batch, std::size_t unit);

/// One pass of one unit through the public entry point.
struct BatchRun {
  double seconds = 0.0;                ///< host time of the entry-point call
  std::uint64_t kernels = 0;           ///< simulated kernel executions
  std::vector<std::uint32_t> digests;  ///< per cell, in plan order
  std::size_t insane = 0;              ///< cells failing the sanity checks
};

BatchRun run_unit(const Batch& batch, std::size_t unit,
                  const apt::core::BatchRunner& runner);

/// Per-layer results of the traced replay (host ms unless named).
struct Layers {
  double on_event_ms = 0.0;
  double prepare_ms = 0.0;
  double stream_self_ms = 0.0;
  double engine_self_ms = 0.0;
  double metrics_ms = 0.0;
  double tm_solve_ms = 0.0;
  double scenario_ms = 0.0;
  double table_ms = 0.0;
  double cell_setup_ms = 0.0;
  double unattributed_ms = 0.0;
  std::uint64_t dags = 0;
  std::uint64_t passes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t stream_events = 0;
  std::uint64_t compactions = 0;
  std::uint64_t transfers = 0;
  std::uint64_t solves_full = 0;
  std::uint64_t solves_incremental = 0;
  std::uint64_t flows_resolved = 0;
  std::size_t peak_live_apps = 0;
  std::vector<double> cell_ms;       ///< wall time of every replayed cell
  std::vector<double> on_event_us;   ///< duration of every policy pass
  std::size_t unbalanced_cells = 0;  ///< unattributed share above the bound
  std::size_t failed_cells = 0;      ///< threw, digest mismatch or violation
};

/// Replays every cell of the batch through the lower-level public calls the
/// entry point makes, with spans around each call and an obs::Profile
/// attached. Each cell's digest must equal `expected` (the timed run's),
/// and its schedule must pass the simulator's validator. A cell is
/// unbalanced when the time its layer spans do not cover exceeds
/// `balance_bound` of its wall time.
Layers traced_replay(const Batch& batch,
                     const std::vector<std::uint32_t>& expected,
                     SpanRecorder& rec, double balance_bound);

/// The same batch with its size axis halved: max_apps for burst streams,
/// the admission horizon and warm-up otherwise. Used for the growth
/// exponent; closed batches have no such axis and are rejected.
Batch half_size(const Batch& batch);

}  // namespace perfbench
