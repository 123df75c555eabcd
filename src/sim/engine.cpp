#include "sim/engine.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/precomputed_cost_model.hpp"
#include "stream/stream_engine.hpp"

namespace apt::sim {

Engine::Engine(const dag::Dag& dag, const System& system,
               const CostModel& cost)
    : dag_(dag), system_(system), cost_(cost) {}

Engine::Engine(const dag::Dag& dag, const System& system,
               const CostModel& cost, EngineOptions options)
    : dag_(dag), system_(system), cost_(cost), options_(std::move(options)) {}

SimResult Engine::run(Policy& policy) {
  options_.noise.validate();
  options_.hedging.validate();
  if (options_.hedging.enabled && system_.topology().contended())
    throw std::invalid_argument(
        "Engine: straggler hedging requires an uncontended topology (a "
        "replica's input transfers are not modelled as fabric messages)");
  // Densify the cost model once per run unless the caller already did for
  // this graph. The run borrows the dense tables (and the graph) directly;
  // under a contended topology it wraps them in a TopologyCostModel, so
  // policies — HEFT/PEFT's EFT estimates included — price edges against
  // the fabric.
  const auto* pre = dynamic_cast<const PrecomputedCostModel*>(&cost_);
  std::optional<PrecomputedCostModel> local;
  if (pre == nullptr || !pre->built_for(dag_, system_))
    pre = &local.emplace(dag_, system_, cost_);
  return stream::detail::run_closed(dag_, system_, *pre, options_, policy);
}

}  // namespace apt::sim
