#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/policy_factory.hpp"
#include "core/runner.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "sim/validate.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = apt::core;
namespace dag = apt::dag;
namespace lut = apt::lut;
namespace obs = apt::obs;
namespace sim = apt::sim;
namespace stream = apt::stream;

namespace {

// Copies of the salts in src/core/stream_plan.cpp, so the traced replay
// regenerates exactly the instances run_stream_plan generates. If they ever
// drift, every replayed stream cell fails its digest check.
constexpr std::uint64_t kInstanceSeedSalt = 0x57AE4E6A11CE5EEDULL;
constexpr std::uint64_t kNoiseSeedSalt = 0x4015E5EEDC3115A7ULL;

// --- cell digests ------------------------------------------------------------

class Fnv {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint32_t digest() const {
    return static_cast<std::uint32_t>(h_ ^ (h_ >> 32));
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint32_t closed_digest(const core::Cell& c, std::size_t kernels) {
  Fnv f;
  f.add(c.makespan_ms);
  f.add(c.lambda_total_ms);
  f.add(c.lambda_avg_ms);
  f.add(c.lambda_stddev_ms);
  f.add(static_cast<std::uint64_t>(c.alternative_count));
  f.add(static_cast<std::uint64_t>(kernels));
  return f.digest();
}

bool closed_sane(const core::Cell& c) {
  return std::isfinite(c.makespan_ms) && c.makespan_ms > 0.0;
}

std::uint32_t stream_digest(const sim::StreamMetrics& m) {
  Fnv f;
  f.add(m.flow_ms.avg);
  f.add(m.flow_ms.p95);
  f.add(m.flow_ms.p99);
  f.add(m.end_ms);
  f.add(static_cast<std::uint64_t>(m.kernels_completed));
  f.add(static_cast<std::uint64_t>(m.apps_completed));
  f.add(m.avg_utilization);
  return f.digest();
}

bool stream_sane(const sim::StreamMetrics& m) {
  return m.apps_arrived > 0 && m.apps_completed == m.apps_arrived &&
         std::isfinite(m.flow_ms.avg) && m.flow_ms.avg > 0.0;
}

// --- plans -------------------------------------------------------------------

lut::LookupTable stream_table(const Workload& w) {
  return w.synthetic ? lut::synthetic_lookup_table(w.synthetic_spec)
                     : lut::paper_lookup_table();
}

core::ExperimentPlan closed_plan(const Workload& w, std::uint64_t seed) {
  core::ScenarioSweepSpec spec = w.sweep;
  spec.graph_seed = seed;
  core::ExperimentPlan plan =
      core::make_scenario_plan(spec, w.policies, w.rates_gbps);
  plan.base_seed = seed;
  return plan;
}

/// What BatchRunner::run builds before its first cell: one system and
/// cost model per (topology, rate), one dense cost model per graph.
struct ClosedTables {
  std::vector<std::vector<sim::System>> systems;
  std::vector<std::vector<sim::LutCostModel>> models;
  std::vector<std::vector<std::vector<sim::PrecomputedCostModel>>> cost;

  explicit ClosedTables(const core::ExperimentPlan& plan) {
    const std::size_t topologies = plan.topology_count();
    const std::size_t rates = plan.rates_gbps.size();
    systems.resize(topologies);
    models.resize(topologies);
    cost.resize(topologies);
    for (std::size_t t = 0; t < topologies; ++t) {
      // Reserved up front: the cost models keep references into these.
      systems[t].reserve(rates);
      models[t].reserve(rates);
      cost[t].resize(rates);
      for (std::size_t r = 0; r < rates; ++r) {
        sim::SystemConfig cfg = plan.base_system;
        cfg.link_rate_gbps = plan.rates_gbps[r];
        cfg.topology = plan.topology_spec(t);
        systems[t].emplace_back(cfg);
        models[t].emplace_back(plan.table, systems[t].back());
        cost[t][r].reserve(plan.graphs.size());
        for (const dag::Dag& graph : plan.graphs)
          cost[t][r].emplace_back(graph, systems[t][r], models[t][r]);
      }
    }
  }
};

/// What run_stream_plan builds before its first cell.
struct StreamTables {
  lut::LookupTable paper_fallback;
  const lut::LookupTable& table;
  sim::System system;
  sim::LutCostModel base_cost;
  dag::KernelPool pool;

  explicit StreamTables(const core::StreamPlan& plan)
      : paper_fallback(plan.table.empty() ? lut::paper_lookup_table()
                                          : lut::LookupTable()),
        table(plan.table.empty() ? paper_fallback : plan.table),
        system(plan.base_system),
        base_cost(table, system),
        pool(dag::KernelPool::from_lookup_table(table)) {}
};

std::string json_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", \"" : "\"") + v[i] + "\"";
  return out + "]";
}

template <typename T>
std::string json_numbers(const std::vector<T>& v) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  out << "]";
  return out.str();
}

// --- traced replay -----------------------------------------------------------

/// Folds one finished cell's spans (root at `root`, children after it) into
/// the layer totals. Nested TransferManager solve time, read from the
/// profile, moves from the policy and engine self times to `net`.
void account_cell(const SpanList& spans, std::size_t root,
                  bool stream_cell, double tm_total_ms,
                  double tm_in_on_event_ms, double balance_bound,
                  Layers& out) {
  const std::size_t n = spans.size() - root;
  const auto dur = [&](std::size_t j) {
    return spans[j].end_us - spans[j].start_us;
  };
  std::vector<double> covered(n, 0.0);
  for (std::size_t j = root + 1; j < spans.size(); ++j)
    covered[static_cast<std::size_t>(spans[j].parent) - root] += dur(j);
  double self_us[static_cast<std::size_t>(SpanName::kCount)] = {};
  for (std::size_t j = root; j < spans.size(); ++j) {
    self_us[static_cast<std::size_t>(spans[j].name)] +=
        dur(j) - covered[j - root];
    if (spans[j].name == SpanName::kOnEvent) out.on_event_us.push_back(dur(j));
    if (spans[j].name == SpanName::kDagSource) ++out.dags;
  }
  const auto self_ms = [&](SpanName name) {
    return self_us[static_cast<std::size_t>(name)] / 1000.0;
  };
  const double wall_ms = dur(root) / 1000.0;
  const double unattributed_ms = self_ms(SpanName::kCell);
  out.on_event_ms += self_ms(SpanName::kOnEvent) - tm_in_on_event_ms;
  out.prepare_ms += self_ms(SpanName::kPrepare);
  out.engine_self_ms += self_ms(SpanName::kEngineRun);
  out.stream_self_ms += self_ms(SpanName::kStreamRun);
  const double tm_in_engine_ms = tm_total_ms - tm_in_on_event_ms;
  (stream_cell ? out.stream_self_ms : out.engine_self_ms) -= tm_in_engine_ms;
  out.tm_solve_ms += tm_total_ms;
  out.metrics_ms += self_ms(SpanName::kMetrics);
  out.scenario_ms += self_ms(SpanName::kDagSource);
  out.cell_setup_ms += self_ms(SpanName::kCellSetup);
  out.unattributed_ms += unattributed_ms;
  out.cell_ms.push_back(wall_ms);
  if (unattributed_ms > balance_bound * wall_ms) ++out.unbalanced_cells;
}

void add_profile(const obs::Profile& profile, bool stream_cell, Layers& out) {
  out.passes += profile.count(obs::Counter::kPolicyPasses);
  out.decisions += profile.count(obs::Counter::kPolicyDecisions);
  out.transfers += profile.count(obs::Counter::kTransfersStarted);
  if (stream_cell) {
    out.stream_events += profile.count(obs::Counter::kEventsProcessed);
    out.compactions += profile.count(obs::Counter::kReadyCompactions);
  }
}

void replay_closed(const core::ExperimentPlan& plan, std::size_t offset,
                   const std::vector<std::uint32_t>& expected,
                   SpanRecorder& rec, double balance_bound, Layers& out) {
  std::optional<ClosedTables> tables;
  {
    const Scoped span(rec, SpanName::kTables, kNoCell);
    plan.validate();
    tables.emplace(plan);
  }
  const std::size_t cells = plan.task_count();
  for (std::size_t i = 0; i < cells; ++i) {
    const auto cell = static_cast<std::uint32_t>(offset + i);
    const core::BatchTask task = plan.task(i);
    const dag::Dag& graph = plan.graphs[task.graph];
    const sim::System& system = tables->systems[task.topology][task.rate];
    const sim::PrecomputedCostModel& cost =
        tables->cost[task.topology][task.rate][task.graph];
    obs::Profile profile;
    core::RunOutcome outcome;
    std::optional<TimedPolicy> timed;
    std::uint32_t digest = 0;
    bool ok = true;
    const std::size_t root = rec.spans().size();
    try {
      const Scoped root_span(rec, SpanName::kCell, cell);
      std::unique_ptr<sim::Policy> policy;
      std::optional<sim::Engine> engine;
      {
        const Scoped span(rec, SpanName::kCellSetup, cell);
        policy = core::make_policy(core::resolve_policy_spec(
            plan.policy_specs[task.policy], task.seed));
        timed.emplace(*policy, rec, cell, profile);
        sim::EngineOptions options;
        options.profile = &profile;
        engine.emplace(graph, system, cost, options);
        outcome.policy_name = policy->name();
      }
      {
        const Scoped span(rec, SpanName::kEngineRun, cell);
        outcome.result = engine->run(*timed);
      }
      {
        const Scoped span(rec, SpanName::kMetrics, cell);
        outcome.metrics = sim::compute_metrics(graph, system, outcome.result);
      }
      digest = closed_digest(core::cell_from_outcome(outcome),
                             graph.node_count());
      const Scoped span(rec, SpanName::kCellSetup, cell);  // teardown
      engine.reset();
      policy.reset();
    } catch (const std::exception&) {
      ok = false;
    }
    account_cell(rec.spans(), root, false, tm_solve_ms(profile),
                 timed ? timed->tm_in_on_event_ms() : 0.0, balance_bound, out);
    add_profile(profile, false, out);
    if (ok) {
      ok = cell < expected.size() && digest == expected[cell] &&
           sim::validate_schedule(graph, system, cost, outcome.result).empty();
    }
    if (!ok) ++out.failed_cells;
  }
}

void replay_stream(const core::StreamPlan& plan, std::size_t offset,
                   const std::vector<std::uint32_t>& expected,
                   SpanRecorder& rec, double balance_bound, Layers& out) {
  std::optional<StreamTables> tables;
  {
    const Scoped span(rec, SpanName::kTables, kNoCell);
    plan.validate();
    tables.emplace(plan);
  }
  const std::size_t cells = plan.cell_count();
  for (std::size_t i = 0; i < cells; ++i) {
    const auto cell = static_cast<std::uint32_t>(offset + i);
    // Mirrors the cell body of core::run_stream_plan, plus the profile and
    // recorded schedules the checks need.
    const core::StreamCellCoords coords = core::stream_cell_coords(plan, i);
    const apt::scenario::ScenarioFamily& family =
        apt::scenario::family(plan.families[coords.family]);
    const std::size_t kernels = std::max(family.min_kernels(), plan.kernels);
    obs::Profile profile;
    stream::StreamOutcome outcome;
    std::optional<TimedPolicy> timed;
    std::uint32_t digest = 0;
    bool ok = true;
    const std::size_t root = rec.spans().size();
    try {
      const Scoped root_span(rec, SpanName::kCell, cell);
      std::unique_ptr<sim::Policy> policy;
      std::optional<stream::StreamEngine> engine;
      {
        const Scoped span(rec, SpanName::kCellSetup, cell);
        stream::StreamOptions options;
        options.arrivals.kind = plan.arrival_kind;
        options.arrivals.rate_per_ms = plan.rates_per_ms[coords.rate];
        options.arrivals.seed = coords.workload_seed;
        options.max_apps = plan.max_apps;
        options.horizon_ms = plan.horizon_ms;
        options.warmup_ms = plan.warmup_ms;
        options.noise = plan.noise;
        options.hedging = plan.hedging;
        options.noise.seed = apt::util::stream_seed(
            coords.workload_seed ^ kNoiseSeedSalt, plan.noise.seed);
        options.record_schedules = true;
        options.profile = &profile;
        const std::uint64_t instance_base =
            coords.workload_seed ^ kInstanceSeedSalt;
        const dag::KernelPool& pool = tables->pool;
        stream::DagSource source = [&rec, cell, &family, kernels,
                                    instance_base, &pool](std::size_t k) {
          const Scoped span(rec, SpanName::kDagSource, cell);
          return family.generate(
              kernels, apt::util::stream_seed(instance_base, k), pool);
        };
        policy = core::make_policy(core::resolve_policy_spec(
            plan.policy_specs[coords.policy], coords.seed));
        timed.emplace(*policy, rec, cell, profile);
        engine.emplace(tables->system, tables->base_cost, std::move(source),
                       std::move(options));
      }
      {
        const Scoped span(rec, SpanName::kStreamRun, cell);
        outcome = engine->run(*timed);
      }
      digest = stream_digest(outcome.metrics);
      const Scoped span(rec, SpanName::kCellSetup, cell);  // teardown
      engine.reset();
      policy.reset();
    } catch (const std::exception&) {
      ok = false;
    }
    account_cell(rec.spans(), root, true, tm_solve_ms(profile),
                 timed ? timed->tm_in_on_event_ms() : 0.0, balance_bound, out);
    add_profile(profile, true, out);
    if (ok) {
      const apt::net::SolveStats& solves = outcome.metrics.tm_solve_stats;
      out.solves_full += solves.full_solves;
      out.solves_incremental += solves.incremental_solves;
      out.flows_resolved += solves.flows_resolved;
      out.peak_live_apps =
          std::max(out.peak_live_apps, outcome.metrics.live_apps_max);
      std::vector<sim::StreamAppView> views;
      views.reserve(outcome.schedules.size());
      for (const stream::StreamAppSchedule& app : outcome.schedules)
        views.push_back({&app.dag, app.arrival_ms, &app.result});
      ok = cell < expected.size() && digest == expected[cell] &&
           sim::validate_stream_schedule(tables->system, views).empty();
    }
    if (!ok) ++out.failed_cells;
  }
}

}  // namespace

// --- workloads ---------------------------------------------------------------

Workload make_workload(const std::string& name, Size size) {
  const bool tiny = size == Size::kTiny;
  Workload w;
  w.name = name;
  if (name == "closed_sweep") {
    // The paper's closed-system question at sweep scale: sim::Engine,
    // static prepare() (HEFT/PEFT/ranked tables) and per-cell set-up; no
    // stream engine and no contended fabric.
    w.sweep.families = {"type1", "type2", "layered", "cholesky"};
    w.sweep.graphs_per_family = tiny ? 2 : 100;
    w.sweep.kernel_counts = {46, 200};
    w.rates_gbps = {4.0, 8.0};
    w.policies = {"apt:4", "met", "spn",    "ag",
                  "heft",  "peft", "minmin", "apt-ranked:4"};
  } else if (name == "backlog_burst") {
    // Deep open-system backlog on an ideal fabric: arrivals far above the
    // platform's capacity, so every policy pass scans a long ready set.
    w.stream = true;
    w.plan.families = {"type1"};
    w.plan.rates_per_ms = {0.005};
    w.plan.kernels = 46;
    w.plan.max_apps = tiny ? 12 : 240;
    w.plan.horizon_ms = 0.0;
    w.plan.warmup_ms = 0.0;
    w.policies = {"apt:4", "met", "spn", "ag"};
  } else if (name == "fabric_steady") {
    // A contended fabric under a shallow backlog: below capacity, so ready
    // sets stay short and the event loop and TransferManager do the work.
    w.stream = true;
    w.plan.families = {"layered"};
    w.plan.rates_per_ms = {2e-5};
    w.plan.kernels = 46;
    w.plan.max_apps = 0;
    w.plan.horizon_ms = tiny ? 4.0e6 : 4.0e7;
    w.plan.warmup_ms = tiny ? 4.0e5 : 4.0e6;
    w.plan.base_system.topology = apt::net::parse_topology_spec("mesh:2x2");
    w.synthetic = true;
    w.synthetic_spec.ccr = 4.0;
    w.synthetic_spec.heterogeneity = 4.0;
    w.synthetic_spec.seed = 3;
    w.synthetic_spec.link_rate_gbps = w.plan.base_system.link_rate_gbps;
    w.policies = {"apt:4", "apt-c:4", "ag", "ag-net"};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.plan.policy_specs = w.policies;
  return w;
}

std::string workload_json(const Workload& w) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"name\": \"" << w.name << "\", \"policies\": "
      << json_list(w.policies);
  if (!w.stream) {
    out << ", \"engine\": \"closed\", \"families\": "
        << json_list(w.sweep.families)
        << ", \"graphs_per_family\": " << w.sweep.graphs_per_family
        << ", \"kernel_counts\": " << json_numbers(w.sweep.kernel_counts)
        << ", \"rates_gbps\": " << json_numbers(w.rates_gbps)
        << ", \"topology\": \"" << w.sweep.topology.label()
        << "\", \"table\": \"paper\"";
  } else {
    const core::StreamPlan& p = w.plan;
    out << ", \"engine\": \"stream\", \"families\": " << json_list(p.families)
        << ", \"rates_per_ms\": " << json_numbers(p.rates_per_ms)
        << ", \"kernels\": " << p.kernels << ", \"max_apps\": " << p.max_apps
        << ", \"horizon_ms\": " << p.horizon_ms
        << ", \"warmup_ms\": " << p.warmup_ms << ", \"link_rate_gbps\": "
        << p.base_system.link_rate_gbps << ", \"topology\": \""
        << p.base_system.topology.label() << "\", \"table\": ";
    if (w.synthetic)
      out << "{\"ccr\": " << w.synthetic_spec.ccr
          << ", \"hetero\": " << w.synthetic_spec.heterogeneity
          << ", \"lut_seed\": " << w.synthetic_spec.seed << "}";
    else
      out << "\"paper\"";
  }
  out << ", \"jobs\": 1}";
  return out.str();
}

// --- batches -----------------------------------------------------------------

namespace {

/// One unit per (rate, family): each owns its graphs and link rate, so the
/// units together build exactly the tables the whole plan builds, and their
/// cells, concatenated, are the whole plan's cells in its order.
std::vector<core::ExperimentPlan> split_closed(const core::ExperimentPlan& full,
                                               std::size_t families) {
  std::vector<core::ExperimentPlan> units;
  const std::size_t per_family = full.graphs.size() / families;
  for (const double rate : full.rates_gbps) {
    for (std::size_t f = 0; f < families; ++f) {
      core::ExperimentPlan u;
      const auto first = full.graphs.begin() +
                         static_cast<std::ptrdiff_t>(f * per_family);
      u.graphs.assign(first, first + static_cast<std::ptrdiff_t>(per_family));
      u.policy_specs = full.policy_specs;
      u.rates_gbps = {rate};
      u.topologies = full.topologies;
      u.replications = full.replications;
      u.base_seed = full.base_seed;
      u.base_system = full.base_system;
      u.table = full.table;
      units.push_back(std::move(u));
    }
  }
  return units;
}

/// One unit per policy: a stream cell's instances depend only on its
/// (family, rate) row, so a one-policy plan reproduces that column's cell.
std::vector<core::StreamPlan> split_stream(const core::StreamPlan& full) {
  std::vector<core::StreamPlan> units;
  for (const std::string& spec : full.policy_specs) {
    core::StreamPlan u = full;
    u.policy_specs = {spec};
    units.push_back(std::move(u));
  }
  return units;
}

}  // namespace

std::size_t Batch::units() const {
  return workload->stream ? stream.size() : closed.size();
}

std::size_t Batch::unit_cells(std::size_t unit) const {
  return workload->stream ? stream[unit].cell_count()
                          : closed[unit].task_count();
}

std::size_t Batch::cells() const {
  std::size_t n = 0;
  for (std::size_t u = 0; u < units(); ++u) n += unit_cells(u);
  return n;
}

Batch make_batch(const Workload& w, std::uint64_t seed) {
  Batch b;
  b.workload = &w;
  b.seed = seed;
  if (!w.stream) {
    b.closed = split_closed(closed_plan(w, seed), w.sweep.families.size());
  } else {
    core::StreamPlan plan = w.plan;
    plan.base_seed = seed;
    if (w.synthetic) plan.table = stream_table(w);
    b.stream = split_stream(plan);
  }
  return b;
}

void set_up_unit(const Batch& batch, std::size_t unit) {
  if (!batch.workload->stream) {
    batch.closed.at(unit).validate();
    const ClosedTables tables(batch.closed[unit]);
  } else {
    batch.stream.at(unit).validate();
    const StreamTables tables(batch.stream[unit]);
  }
}

BatchRun run_unit(const Batch& batch, std::size_t unit,
                  const core::BatchRunner& runner) {
  using Clock = std::chrono::steady_clock;
  BatchRun run;
  if (!batch.workload->stream) {
    const core::ExperimentPlan& plan = batch.closed.at(unit);
    const auto t0 = Clock::now();
    const core::BatchResult result = runner.run(plan);
    run.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    run.digests.reserve(result.cells.size());
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const core::Cell& cell = result.cells[i];
      const std::size_t kernels = plan.graphs[plan.task(i).graph].node_count();
      run.kernels += kernels;
      run.digests.push_back(closed_digest(cell, kernels));
      if (!closed_sane(cell)) ++run.insane;
    }
  } else {
    const auto t0 = Clock::now();
    const core::StreamBatchResult result =
        core::run_stream_plan(batch.stream.at(unit), runner);
    run.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    run.digests.reserve(result.cells.size());
    for (const core::StreamCellResult& cell : result.cells) {
      run.kernels += cell.metrics.kernels_completed;
      run.digests.push_back(stream_digest(cell.metrics));
      if (!stream_sane(cell.metrics)) ++run.insane;
    }
  }
  return run;
}

Layers traced_replay(const Batch& batch,
                     const std::vector<std::uint32_t>& expected,
                     SpanRecorder& rec, double balance_bound) {
  const Workload& w = *batch.workload;
  Layers out;
  std::size_t offset = 0;
  if (w.stream) {
    for (const core::StreamPlan& unit : batch.stream) {
      replay_stream(unit, offset, expected, rec, balance_bound, out);
      offset += unit.cell_count();
    }
  } else {
    std::optional<core::ExperimentPlan> plan;
    {
      const Scoped span(rec, SpanName::kScenarioPlan, kNoCell);
      plan.emplace(closed_plan(w, batch.seed));
    }
    out.dags += plan->graphs.size();
    for (const core::ExperimentPlan& unit :
         split_closed(*plan, w.sweep.families.size())) {
      replay_closed(unit, offset, expected, rec, balance_bound, out);
      offset += unit.task_count();
    }
  }
  for (const Span& s : rec.spans()) {
    if (s.cell != kNoCell) continue;
    const double ms = (s.end_us - s.start_us) / 1000.0;
    if (s.name == SpanName::kScenarioPlan) out.scenario_ms += ms;
    if (s.name == SpanName::kTables) out.table_ms += ms;
  }
  return out;
}

Batch half_size(const Batch& batch) {
  if (!batch.workload->stream)
    throw std::invalid_argument("half_size: closed batches have no size axis");
  Batch half = batch;
  for (core::StreamPlan& unit : half.stream) {
    if (unit.max_apps > 0) {
      unit.max_apps /= 2;
    } else {
      unit.horizon_ms /= 2.0;
      unit.warmup_ms /= 2.0;
    }
  }
  return half;
}

}  // namespace perfbench
