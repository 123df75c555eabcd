// Engine edge cases: overheads combined with queues and releases, empty
// inputs, and transfer queries on boundary nodes.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

class EnqueueEverything : public Policy {
 public:
  std::string name() const override { return "enqueue-all"; }
  bool is_dynamic() const override { return true; }
  void on_event(SchedulerContext& ctx) override {
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (dag::NodeId n : ready) ctx.enqueue(n, 0);
  }
};

class AssignEverywhere : public Policy {
 public:
  std::string name() const override { return "assign-any"; }
  bool is_dynamic() const override { return true; }
  void on_event(SchedulerContext& ctx) override {
    for (;;) {
      const auto& ready = ctx.ready();
      const auto idle = ctx.idle_processors();
      if (ready.empty() || idle.empty()) return;
      ctx.assign(ready.front(), idle.front());
    }
  }
};

TEST(EngineEdge, OverheadsApplyToQueuedKernelsToo) {
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::CPU};
  cfg.decision_overhead_ms = 0.5;
  cfg.dispatch_overhead_ms = 0.5;
  const System sys(cfg);
  MatrixCostModel cost({{2.0}, {2.0}});
  EnqueueEverything policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  // First kernel: enqueued at 0, overheads delay its data-ready to 1.0.
  EXPECT_DOUBLE_EQ(result.schedule[0].exec_start, 1.0);
  EXPECT_DOUBLE_EQ(result.schedule[0].finish_time, 3.0);
  // Second kernel: popped at 3.0; its own overhead window (enqueue at 0
  // + 1.0) already elapsed, so it starts immediately at pop time.
  EXPECT_DOUBLE_EQ(result.schedule[1].exec_start, 3.0);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(EngineEdge, ReleaseCombinesWithQueueing) {
  dag::Dag d;
  d.add_node("a", 1, 0.0);
  d.add_node("b", 1, 1.0);  // released mid-flight of a
  const System sys = test::generic_system(1);
  MatrixCostModel cost({{4.0}, {4.0}});
  EnqueueEverything policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[1].ready_time, 1.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].exec_start, 4.0);
  EXPECT_DOUBLE_EQ(result.makespan, 8.0);
}

TEST(EngineEdge, AllNodesReleasedInTheFuture) {
  // No kernel is ready at time 0; the engine must advance to the first
  // release instead of declaring a stall.
  dag::Dag d;
  d.add_node("a", 1, 5.0);
  d.add_node("b", 1, 7.0);
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 1.0}, {1.0, 1.0}});
  AssignEverywhere policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[0].exec_start, 5.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].exec_start, 7.0);
  EXPECT_DOUBLE_EQ(result.makespan, 8.0);
}

TEST(EngineEdge, SimultaneousReleasesKeepIdOrder) {
  dag::Dag d;
  d.add_node("a", 1, 3.0);
  d.add_node("b", 1, 3.0);
  const System sys = test::generic_system(1);
  MatrixCostModel cost({{1.0}, {1.0}});
  AssignEverywhere policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[0].exec_start, 3.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].exec_start, 4.0);
}

TEST(EngineEdge, InputTransferOfEntryNodesIsZero) {
  class Probe : public Policy {
   public:
    std::string name() const override { return "probe"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      if (ctx.ready().empty()) return;
      EXPECT_DOUBLE_EQ(ctx.transfer_estimate(0, 0).stall_ms, 0.0);
      EXPECT_DOUBLE_EQ(ctx.transfer_estimate(0, 1).stall_ms, 0.0);
      ctx.assign(0, 0);
    }
  };
  dag::Dag d;
  d.add_node("a", 1);
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 1.0}});
  Probe probe;
  Engine engine(d, sys, cost);
  engine.run(probe);
}

TEST(EngineEdge, EnqueueToSeveralProcessorsInterleaves) {
  class SplitQueues : public Policy {
   public:
    std::string name() const override { return "split-queues"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      const std::vector<dag::NodeId> ready = ctx.ready();
      for (dag::NodeId n : ready) ctx.enqueue(n, n % 2);
    }
  };
  dag::Dag d;
  for (int i = 0; i < 4; ++i) d.add_node("k", 1);
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{3.0, 3.0}, {3.0, 3.0}, {3.0, 3.0}, {3.0, 3.0}});
  SplitQueues policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);  // two per queue, perfectly packed
  EXPECT_EQ(result.schedule[0].proc, 0u);
  EXPECT_EQ(result.schedule[1].proc, 1u);
  EXPECT_DOUBLE_EQ(result.schedule[2].exec_start, 3.0);
  EXPECT_DOUBLE_EQ(result.schedule[3].exec_start, 3.0);
}

TEST(EngineEdge, ZeroDurationTransfersDoNotCreateStalls) {
  // Same-processor chains never pay transfers.
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}, {"c", 1}});
  const System sys = test::generic_system(1);
  MatrixCostModel cost({{1.0}, {1.0}, {1.0}});
  cost.set_comm_cost(0, 1, 100.0);
  cost.set_comm_cost(1, 2, 100.0);
  AssignEverywhere policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 3.0);
  for (const auto& k : result.schedule)
    EXPECT_DOUBLE_EQ(k.transfer_ms, 0.0);
}

}  // namespace
}  // namespace apt::sim
