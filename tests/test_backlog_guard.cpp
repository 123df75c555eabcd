// Backlog guard: the policies that run deep stream backlogs must never
// materialise the ready set. A FIFO snapshot (SchedulerContext::ready(),
// counted as ready_compactions in the profile) is O(ready) per pass, which
// makes a burst far above capacity quadratic again. Counting snapshots is
// hardware-independent, unlike timing the burst.
#include <gtest/gtest.h>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "obs/profile.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "stream/stream_engine.hpp"

namespace apt {
namespace {

/// Runs a profiled `type1` burst of `apps` apps under `spec`.
obs::Profile run_burst(const char* spec, std::size_t apps) {
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  const sim::System system(sim::SystemConfig::paper_default(4.0));
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  obs::Profile profile;
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::poisson(0.005, 1);
  opts.max_apps = apps;
  opts.profile = &profile;
  stream::StreamEngine engine(
      system, cost,
      [&](std::size_t i) {
        return scenario::generate("type1", 46, 100 + i % 8, pool);
      },
      opts);
  const auto policy = core::make_policy(spec);
  const stream::StreamOutcome outcome = engine.run(*policy);
  EXPECT_EQ(outcome.metrics.apps_completed, apps) << spec;
  return profile;
}

TEST(BacklogGuard, BurstPoliciesTakeNoReadySnapshots) {
  for (const char* spec : {"apt:4", "met", "spn", "ag"}) {
    const obs::Profile profile = run_burst(spec, 480);
    EXPECT_GT(profile.count(obs::Counter::kPolicyPasses), 480u) << spec;
    EXPECT_EQ(profile.count(obs::Counter::kReadyCompactions), 0u) << spec;
  }
}

// The guard above is only as good as the counter: APT-ranked (a closed-
// system policy) re-sorts all of I and so must take its snapshot through
// the counted ready().
TEST(BacklogGuard, ReadySnapshotsAreCounted) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  const sim::System system(sim::SystemConfig::paper_default(4.0));
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  obs::Profile profile;
  sim::EngineOptions opts;
  opts.profile = &profile;
  sim::Engine engine(graph, system, cost, opts);
  const auto policy = core::make_policy("apt-ranked:4");
  engine.run(*policy);
  EXPECT_GT(profile.count(obs::Counter::kReadyCompactions), 0u);
}

}  // namespace
}  // namespace apt
