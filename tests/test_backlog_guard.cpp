// Backlog guard: the policies that run deep stream backlogs must never
// materialise the ready set. A FIFO snapshot (SchedulerContext::ready(),
// counted as ready_compactions in the profile) is O(ready) per pass, which
// makes a burst far above capacity quadratic again. Likewise AG must decide
// on the O(1) queued_work_bounds, not fold a processor's whole queue
// (queued_work_ms, counted as queue_folds). Counting snapshots and folds
// is hardware-independent, unlike timing the burst.
#include <gtest/gtest.h>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "obs/profile.hpp"
#include "policies/ag.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "stream/stream_engine.hpp"

namespace apt {
namespace {

/// Runs a profiled `type1` burst of `apps` apps under `policy`.
obs::Profile run_burst(sim::Policy& policy, std::size_t apps) {
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
  const stream::StreamOutcome outcome = engine.run(policy);
  EXPECT_EQ(outcome.metrics.apps_completed, apps) << policy.name();
  return profile;
}

TEST(BacklogGuard, BurstPoliciesTakeNoReadySnapshotsOrQueueFolds) {
  for (const char* spec : {"apt:4", "met", "spn", "ag", "ag-net"}) {
    const obs::Profile profile = run_burst(*core::make_policy(spec), 480);
    EXPECT_GT(profile.count(obs::Counter::kPolicyPasses), 480u) << spec;
    EXPECT_EQ(profile.count(obs::Counter::kReadyCompactions), 0u) << spec;
    EXPECT_EQ(profile.count(obs::Counter::kQueueFolds), 0u) << spec;
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

// Likewise queue_folds must count every exact fold: this AG folds
// processor 0's queue once per pass before deciding.
class FoldOncePerPass final : public sim::Policy {
 public:
  std::string name() const override { return "fold-once-AG"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    (void)ctx.queued_work_ms(0);
    ag_.on_event(ctx);
  }

 private:
  policies::AdaptiveGreedy ag_;
};

TEST(BacklogGuard, QueueFoldsAreCounted) {
  FoldOncePerPass policy;
  const obs::Profile profile = run_burst(policy, 24);
  EXPECT_EQ(profile.count(obs::Counter::kQueueFolds),
            profile.count(obs::Counter::kPolicyPasses));
}

}  // namespace
}  // namespace apt
