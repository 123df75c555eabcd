#include "policies/met.hpp"

#include <gtest/gtest.h>

#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "policies/selection.hpp"
#include "test_helpers.hpp"

namespace apt::policies {
namespace {

using sim::TimeMs;

TEST(Met, AssignsEachKernelToItsFastestProcessor) {
  // Three independent kernels, each fastest on a different processor.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_node("c", 1);
  const sim::System sys = test::generic_system(3);
  sim::MatrixCostModel cost(
      {{1.0, 5.0, 5.0}, {5.0, 1.0, 5.0}, {5.0, 5.0, 1.0}});
  Met met;
  const auto result = test::run_and_validate(met, d, sys, cost);
  EXPECT_EQ(result.schedule[0].proc, 0u);
  EXPECT_EQ(result.schedule[1].proc, 1u);
  EXPECT_EQ(result.schedule[2].proc, 2u);
  EXPECT_DOUBLE_EQ(result.makespan, 1.0);
}

TEST(Met, WaitsForTheBestProcessorEvenWhenOthersAreIdle) {
  // Both kernels are fastest on p0; the second must wait, leaving p1 idle.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{2.0, 3.0}, {2.0, 3.0}});
  Met met;
  const auto result = test::run_and_validate(met, d, sys, cost);
  EXPECT_EQ(result.schedule[0].proc, 0u);
  EXPECT_EQ(result.schedule[1].proc, 0u);
  EXPECT_DOUBLE_EQ(result.schedule[1].wait_ms(), 2.0);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);
}

TEST(Met, UsesAnyIdleInstanceOfTheBestCategory) {
  // Two GPUs: both mm kernels run immediately.
  sim::SystemConfig cfg;
  cfg.processors = {lut::ProcType::CPU, lut::ProcType::GPU,
                    lut::ProcType::GPU};
  const sim::System sys(cfg);
  dag::Dag d;
  d.add_node("mm", 250000);
  d.add_node("mm", 250000);
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  Met met;
  const auto result = test::run_and_validate(met, d, sys, cost);
  EXPECT_EQ(result.schedule[0].proc, 1u);
  EXPECT_EQ(result.schedule[1].proc, 2u);
  EXPECT_DOUBLE_EQ(result.schedule[1].wait_ms(), 0.0);
}

TEST(Met, FifoOrderBreaksContention) {
  // Three kernels all fastest on p0: executed in arrival order.
  dag::Dag d;
  for (int i = 0; i < 3; ++i) d.add_node("k", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost(
      {{1.0, 10.0}, {1.0, 10.0}, {1.0, 10.0}});
  Met met;
  const auto result = test::run_and_validate(met, d, sys, cost);
  EXPECT_LT(result.schedule[0].exec_start, result.schedule[1].exec_start);
  EXPECT_LT(result.schedule[1].exec_start, result.schedule[2].exec_start);
}

TEST(Met, NeverUsesAlternativeFlag) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  Met met;
  const auto result = test::run_and_validate(met, graph, sys, cost);
  for (const auto& k : result.schedule) EXPECT_FALSE(k.alternative);
}

TEST(Met, EveryKernelLandsOnItsLookupTableOptimum) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 3);
  const sim::System sys = test::paper_system();
  const auto table = lut::paper_lookup_table();
  const sim::LutCostModel cost(table, sys);
  Met met;
  const auto result = test::run_and_validate(met, graph, sys, cost);
  for (const auto& k : result.schedule) {
    const auto& node = graph.node(k.node);
    EXPECT_EQ(sys.processor(k.proc).type,
              table.best_processor(node.kernel, node.data_size))
        << "node " << k.node << " (" << node.kernel << ")";
  }
}

TEST(Met, RespectsDependenciesOnType2Workload) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 0);
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  Met met;
  test::run_and_validate(met, graph, sys, cost);  // invariants inside
}

TEST(SelectionHelpers, MinExecAcrossAllProcessors) {
  dag::Dag d;
  d.add_node("a", 1);
  const sim::System sys = test::generic_system(3);
  sim::MatrixCostModel cost({{4.0, 2.0, 9.0}});

  class Probe : public sim::Policy {
   public:
    std::string name() const override { return "probe"; }
    bool is_dynamic() const override { return true; }
    void on_event(sim::SchedulerContext& ctx) override {
      if (ctx.ready().empty()) return;  // final post-completion event
      EXPECT_DOUBLE_EQ(ctx.min_exec_time_ms(0), 2.0);
      EXPECT_EQ(ctx.min_exec_proc(0), 1u);
      EXPECT_EQ(idle_optimal_proc(ctx, 0), std::optional<sim::ProcId>(1));
      ctx.assign(0, 1);
    }
  };
  Probe probe;
  sim::Engine engine(d, sys, cost);
  engine.run(probe);
}

}  // namespace
}  // namespace apt::policies
