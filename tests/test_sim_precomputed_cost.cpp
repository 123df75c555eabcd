// The densified cost model must agree bit-for-bit with the model it wraps
// on every query the engine or a policy can make, and fall back to the
// base model for anything outside its precomputed dag.
#include "sim/precomputed_cost_model.hpp"

#include <gtest/gtest.h>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

TEST(PrecomputedCostModel, MatchesLutModelOnEveryNodeProcAndEdge) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 3);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);

  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    for (const Processor& p : system.processors()) {
      EXPECT_EQ(fast.exec_time_ms(graph, n, p), base.exec_time_ms(graph, n, p));
    }
    for (dag::NodeId s : graph.successors(n)) {
      for (const Processor& from : system.processors()) {
        for (const Processor& to : system.processors()) {
          EXPECT_EQ(fast.transfer_time_ms(graph, n, s, from, to),
                    base.transfer_time_ms(graph, n, s, from, to));
        }
      }
    }
  }
}

TEST(PrecomputedCostModel, AveragesMatchBaseHelpers) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    EXPECT_EQ(fast.average_exec_time_ms(graph, n, system),
              base.average_exec_time_ms(graph, n, system));
  }
}

TEST(PrecomputedCostModel, MatchesMatrixModelIncludingNonEdgePairs) {
  const auto ex = test::topcuoglu_example();
  const System system = test::generic_system(3);
  const PrecomputedCostModel fast(ex.dag, system, *ex.cost);
  for (dag::NodeId a = 0; a < ex.dag.node_count(); ++a) {
    for (dag::NodeId b = 0; b < ex.dag.node_count(); ++b) {
      if (a == b) continue;
      // Includes (a, b) pairs that are NOT edges: the adapter must agree
      // with the base (which answers 0 for unknown pairs) via fallback.
      EXPECT_EQ(fast.transfer_time_ms(ex.dag, a, b, system.processor(0),
                                      system.processor(1)),
                ex.cost->transfer_time_ms(ex.dag, a, b, system.processor(0),
                                          system.processor(1)));
    }
  }
}

TEST(PrecomputedCostModel, ForeignDagFallsBackToBase) {
  const auto sizes = lut::paper_lookup_table().sizes_for("mm");
  ASSERT_GE(sizes.size(), 2u);
  const dag::Dag graph = test::chain({{"mm", sizes[0]}, {"mm", sizes[0]}});
  const dag::Dag other = test::chain({{"mm", sizes[1]}, {"mm", sizes[1]}});
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);
  EXPECT_TRUE(fast.built_for(graph, system));
  EXPECT_FALSE(fast.built_for(other, system));
  // Queries about a dag the adapter never saw answer from the base model.
  EXPECT_EQ(fast.exec_time_ms(other, 0, system.processor(0)),
            base.exec_time_ms(other, 0, system.processor(0)));
  EXPECT_EQ(fast.transfer_time_ms(other, 0, 1, system.processor(0),
                                  system.processor(1)),
            base.transfer_time_ms(other, 0, 1, system.processor(0),
                                  system.processor(1)));
}

TEST(PrecomputedCostModel, EngineRunsAreBitIdenticalWithAndWithoutWrapping) {
  // Engine::run wraps internally; pre-wrapping by hand must change nothing
  // (and the engine must not double-wrap). A model densified for another
  // graph must not lend its tables to this one.
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 1);
  const dag::Dag other = dag::paper_graph(dag::DfgType::Type1, 2);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);
  const PrecomputedCostModel foreign(other, system, base);

  const auto run = [&](const CostModel& cost) {
    auto policy = core::make_policy("apt:4");
    Engine engine(graph, system, cost);
    return engine.run(*policy);
  };
  const SimResult a = run(base);
  for (const SimResult& b : {run(fast), run(foreign)}) {
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    EXPECT_EQ(a.makespan, b.makespan);
    for (std::size_t i = 0; i < a.schedule.size(); ++i) {
      EXPECT_EQ(a.schedule[i].proc, b.schedule[i].proc);
      EXPECT_EQ(a.schedule[i].finish_time, b.schedule[i].finish_time);
    }
  }
}

}  // namespace
}  // namespace apt::sim
