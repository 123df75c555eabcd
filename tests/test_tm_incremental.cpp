// Equivalence tests for the incremental max-min re-solve in
// net::TransferManager — filling only the link<->flow component around a
// membership event must be invisible in every simulated quantity:
//
//  * randomized routed scenarios (ring/mesh/fattree, small 2x2 and ring:4
//    fabrics with 4-12 messages and larger ones with 20-60, 200 seeds)
//    drive two managers in lockstep — one pinned to SolveMode::FullAlways
//    (the closure seeded with every link), one on the default component
//    path — and every event time, delivery timeline, and per-link total
//    must match BITWISE;
//  * a message on a route disjoint from every other flow re-levels itself
//    alone, however small the fabric;
//  * the stream engine under contention produces identical TransferRecord
//    timelines and StreamMetrics either way, at 10x the densest sustained
//    bench rate;
//  * SolveStats counters surface the split and stay internally consistent;
//  * the reusable advance_to out-buffer overload matches the returning one.
#include "net/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/lookup_table.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"

namespace apt {
namespace {

/// Restores the process-wide default solve mode on scope exit, so a failing
/// assertion cannot leak FullAlways into later tests.
struct SolveModeGuard {
  ~SolveModeGuard() {
    net::TransferManager::set_default_solve_mode(
        net::TransferManager::SolveMode::Auto);
  }
};

net::Topology routed_topology(const std::string& spec_str,
                              net::ProcId procs) {
  net::TopologySpec spec = net::parse_topology_spec(spec_str);
  spec.bandwidth_gbps = 1.0;  // 1e6 bytes/ms
  spec.latency_ms = 0.05;
  return net::Topology(spec, procs, 1.0);
}

/// Drives `full` and `inc` through the identical event sequence up to
/// `until`, asserting bitwise-equal event times and delivery timelines.
void drain_lockstep(net::TransferManager& full, net::TransferManager& inc,
                    net::TimeMs until) {
  for (;;) {
    const net::TimeMs e = inc.next_event_ms();
    ASSERT_EQ(e, full.next_event_ms());  // bitwise
    if (std::isinf(e) || e > until) break;
    const auto di = inc.advance_to(e);
    const auto df = full.advance_to(e);
    ASSERT_EQ(di.size(), df.size());
    for (std::size_t i = 0; i < di.size(); ++i) {
      EXPECT_EQ(di[i].tag, df[i].tag);
      EXPECT_EQ(di[i].delivered_ms, df[i].delivered_ms);  // bitwise
    }
  }
}

TEST(TmIncremental, RandomizedRoutedScenariosMatchFullSolveBitwise) {
  const SolveModeGuard guard;
  // Message counts are min_messages + [0, extra_messages]. The small
  // fabrics keep few flows live at once; the larger ones many.
  struct Shape {
    const char* spec;
    net::ProcId procs;
    std::size_t min_messages;
    std::size_t extra_messages;
  };
  const std::vector<Shape> shapes = {{"mesh:2x2", 4, 4, 8},
                                     {"ring:4", 4, 4, 8},
                                     {"ring:6", 6, 20, 40},
                                     {"mesh:3x3", 9, 20, 40},
                                     {"fattree:2", 8, 20, 40}};
  std::uint64_t incremental_total = 0;
  std::uint64_t small_incremental_total = 0;
  for (const Shape& shape : shapes) {
    const net::Topology topo = routed_topology(shape.spec, shape.procs);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      util::Rng rng(0xD1517 * seed + shape.procs);
      net::TransferManager::set_default_solve_mode(
          net::TransferManager::SolveMode::FullAlways);
      net::TransferManager full(topo);
      net::TransferManager::set_default_solve_mode(
          net::TransferManager::SolveMode::Auto);
      net::TransferManager inc(topo);

      // Clustered starts, so several flows share the fabric at once.
      const std::size_t count =
          shape.min_messages + rng.uniform_u64(shape.extra_messages + 1);
      net::TimeMs at = 0.0;
      for (std::size_t m = 0; m < count; ++m) {
        at += rng.uniform_real(0.01, 1.5);
        const auto from =
            static_cast<net::ProcId>(rng.uniform_u64(shape.procs));
        auto to = static_cast<net::ProcId>(rng.uniform_u64(shape.procs));
        if (to == from) to = (to + 1) % shape.procs;
        const double bytes = rng.uniform_real(1e4, 5e6);
        drain_lockstep(full, inc, at);
        const auto df = full.advance_to(at);
        const auto di = inc.advance_to(at);
        ASSERT_EQ(di.size(), df.size());
        full.start(m, bytes, from, to, at);
        inc.start(m, bytes, from, to, at);
      }
      while (inc.busy()) {
        ASSERT_TRUE(full.busy());
        drain_lockstep(full, inc,
                       std::numeric_limits<net::TimeMs>::infinity());
      }
      EXPECT_FALSE(full.busy());
      // Cumulative per-link accounting must agree bitwise too.
      const auto& busy_f = full.link_busy_in_window_ms();
      const auto& busy_i = inc.link_busy_in_window_ms();
      ASSERT_EQ(busy_f.size(), busy_i.size());
      for (std::size_t l = 0; l < busy_f.size(); ++l)
        EXPECT_EQ(busy_f[l], busy_i[l]);
      const auto& bytes_f = full.link_bytes_in_window();
      const auto& bytes_i = inc.link_bytes_in_window();
      for (std::size_t l = 0; l < bytes_f.size(); ++l)
        EXPECT_EQ(bytes_f[l], bytes_i[l]);

      // Both managers solve at the same membership events with the same
      // flows live. FullAlways re-levels every active flow each time, so
      // all its solves are full; the component path splits the same
      // events into full and incremental solves and re-levels at most as
      // many flows.
      const net::SolveStats& sf = full.solve_stats();
      const net::SolveStats& si = inc.solve_stats();
      EXPECT_EQ(si.incremental_solves + si.full_solves, sf.full_solves);
      EXPECT_EQ(sf.incremental_solves, 0u);
      EXPECT_EQ(si.flows_active, sf.flows_active);
      EXPECT_EQ(sf.flows_resolved, sf.flows_active);
      EXPECT_LE(si.flows_resolved, si.flows_active);
      incremental_total += si.incremental_solves;
      small_incremental_total += shape.procs == 4 ? si.incremental_solves : 0;
    }
  }
  // The small fabrics must run the component path too, not only fill the
  // whole fabric.
  EXPECT_GT(small_incremental_total, 0u);
  // The suite must actually exercise the incremental path, not fall back
  // to full solves throughout.
  EXPECT_GT(incremental_total, 0u);
}

TEST(TmIncremental, SolveStatsCountersStayConsistent) {
  const SolveModeGuard guard;
  const net::Topology topo = routed_topology("mesh:4x4", 16);
  net::TransferManager tm(topo);
  util::Rng rng(0xCAFE);
  net::TimeMs at = 0.0;
  for (std::size_t m = 0; m < 200; ++m) {
    at += rng.uniform_real(0.01, 0.2);
    const auto from = static_cast<net::ProcId>(rng.uniform_u64(16));
    auto to = static_cast<net::ProcId>(rng.uniform_u64(16));
    if (to == from) to = (to + 1) % 16;
    tm.advance_to(at);
    tm.start(m, rng.uniform_real(1e5, 5e6), from, to, at);
  }
  while (tm.busy()) tm.advance_to(tm.next_event_ms());
  const net::SolveStats& st = tm.solve_stats();
  EXPECT_GT(st.incremental_solves, 0u);
  EXPECT_GT(st.full_solves, 0u);
  // Restricted fills resolve a subset of the active flows; full solves
  // resolve all of them — so the resolved count is bounded by the active
  // count and both grow monotonically past zero.
  EXPECT_GT(st.flows_active, 0u);
  EXPECT_GT(st.flows_resolved, 0u);
  EXPECT_LE(st.flows_resolved, st.flows_active);
}

// Two messages on disjoint single-hop mesh:2x2 routes (row-major
// placement: 0 -> 1 in the top row, 2 -> 3 in the bottom one) form two
// components. Activating the second re-levels that message alone and
// leaves the first's rate, anchor and projection untouched; FullAlways
// re-levels both.
TEST(TmIncremental, DisjointRouteJoinsReLevelOnlyItself) {
  const SolveModeGuard guard;
  const net::Topology topo = routed_topology("mesh:2x2", 4);
  const net::Topology::Route a = topo.route(0, 1);
  const net::Topology::Route b = topo.route(2, 3);
  for (const net::LinkId l : a)
    for (const net::LinkId m : b) ASSERT_NE(l, m);

  for (const auto mode : {net::TransferManager::SolveMode::Auto,
                          net::TransferManager::SolveMode::FullAlways}) {
    net::TransferManager::set_default_solve_mode(mode);
    net::TransferManager tm(topo);
    tm.start(0, 4e6, 0, 1, 0.0);
    tm.advance_to(1.0);  // the first message is draining alone
    const net::SolveStats before = tm.solve_stats();
    EXPECT_EQ(before.full_solves, 1u);
    EXPECT_EQ(before.flows_resolved, 1u);

    tm.start(1, 4e6, 2, 3, 1.0);
    tm.advance_to(1.5);  // activation at 1.0 + the 0.05 ms route latency
    const net::SolveStats& after = tm.solve_stats();
    EXPECT_EQ(after.flows_active - before.flows_active, 2u);
    if (mode == net::TransferManager::SolveMode::Auto) {
      EXPECT_EQ(after.flows_resolved - before.flows_resolved, 1u);
      EXPECT_EQ(after.incremental_solves, 1u);
      EXPECT_EQ(after.full_solves, 1u);
    } else {
      EXPECT_EQ(after.flows_resolved - before.flows_resolved, 2u);
      EXPECT_EQ(after.incremental_solves, 0u);
      EXPECT_EQ(after.full_solves, 2u);
    }
    // Neither message slowed the other: each drains at the full 1e6
    // bytes/ms after its 0.05 ms head latency.
    EXPECT_DOUBLE_EQ(tm.next_event_ms(), 0.05 + 4.0);
    EXPECT_DOUBLE_EQ(tm.link_drain_ms(b[0]), 1.05 + 4.0 - 1.5);
  }
}

TEST(TmIncremental, AdvanceToOutBufferMatchesReturningOverload) {
  const net::Topology topo = routed_topology("ring:6", 6);
  net::TransferManager a(topo);
  net::TransferManager b(topo);
  for (std::uint64_t m = 0; m < 8; ++m) {
    a.start(m, 1e5 * static_cast<double>(m + 1), m % 6, (m + 2) % 6, 0.0);
    b.start(m, 1e5 * static_cast<double>(m + 1), m % 6, (m + 2) % 6, 0.0);
  }
  std::vector<net::Delivery> out;
  out.push_back(net::Delivery{});  // stale content must be discarded
  while (a.busy()) {
    const net::TimeMs e = a.next_event_ms();
    EXPECT_EQ(e, b.next_event_ms());
    const auto returned = a.advance_to(e);
    b.advance_to(e, out);
    ASSERT_EQ(out.size(), returned.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].tag, returned[i].tag);
      EXPECT_EQ(out[i].delivered_ms, returned[i].delivered_ms);
    }
  }
  EXPECT_FALSE(b.busy());
}

// --- Stream-engine-level equivalence ----------------------------------------

stream::StreamOutcome run_contended_stream(const std::string& topology,
                                           const char* policy_spec,
                                           net::TransferManager::SolveMode
                                               mode) {
  net::TransferManager::set_default_solve_mode(mode);
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.bandwidth_gbps = 1.0;
  cfg.topology.latency_ms = 0.05;
  const sim::System system(cfg);
  const lut::LookupTable table = lut::paper_lookup_table();
  const sim::LutCostModel cost(table, system);
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);

  stream::StreamOptions opts;
  // 10x the densest sustained bench rate, bounded by a burst cap.
  opts.arrivals = stream::ArrivalSpec::poisson(0.005, 99);
  opts.max_apps = 16;
  opts.warmup_ms = 0.0;
  opts.record_schedules = true;
  stream::StreamEngine engine(
      system, cost,
      [&](std::size_t i) {
        return scenario::generate("type1", 46, 1000 + i, pool);
      },
      opts);
  const auto policy = core::make_policy(policy_spec);
  return engine.run(*policy);
}

TEST(TmIncremental, StreamEngineTimelinesMatchFullSolveBitwise) {
  const SolveModeGuard guard;
  for (const std::string topology : {"ring:5", "mesh:2x2", "fattree:2"}) {
    for (const char* spec : {"apt:4", "ag"}) {
      const stream::StreamOutcome full = run_contended_stream(
          topology, spec, net::TransferManager::SolveMode::FullAlways);
      const stream::StreamOutcome inc = run_contended_stream(
          topology, spec, net::TransferManager::SolveMode::Auto);

      ASSERT_EQ(full.schedules.size(), inc.schedules.size())
          << topology << " " << spec;
      for (std::size_t s = 0; s < full.schedules.size(); ++s) {
        const sim::SimResult& rf = full.schedules[s].result;
        const sim::SimResult& ri = inc.schedules[s].result;
        EXPECT_EQ(rf.makespan, ri.makespan);  // bitwise
        ASSERT_EQ(rf.schedule.size(), ri.schedule.size());
        for (std::size_t k = 0; k < rf.schedule.size(); ++k) {
          EXPECT_EQ(rf.schedule[k].proc, ri.schedule[k].proc);
          EXPECT_EQ(rf.schedule[k].exec_start, ri.schedule[k].exec_start);
          EXPECT_EQ(rf.schedule[k].finish_time, ri.schedule[k].finish_time);
        }
        // The simulated message timelines — start, drain, finish, route —
        // are the solver's direct output and must match bitwise.
        ASSERT_EQ(rf.transfers.size(), ri.transfers.size());
        for (std::size_t t = 0; t < rf.transfers.size(); ++t) {
          const sim::TransferRecord& a = rf.transfers[t];
          const sim::TransferRecord& b = ri.transfers[t];
          EXPECT_EQ(a.src, b.src);
          EXPECT_EQ(a.dst, b.dst);
          EXPECT_EQ(a.bytes, b.bytes);
          EXPECT_EQ(a.start, b.start);
          EXPECT_EQ(a.drain_start, b.drain_start);
          EXPECT_EQ(a.finish, b.finish);
          EXPECT_EQ(a.path, b.path);
        }
      }
      const sim::StreamMetrics& mf = full.metrics;
      const sim::StreamMetrics& mi = inc.metrics;
      EXPECT_EQ(mf.end_ms, mi.end_ms) << topology << " " << spec;
      EXPECT_EQ(mf.flow_ms.avg, mi.flow_ms.avg);
      EXPECT_EQ(mf.flow_ms.p95, mi.flow_ms.p95);
      EXPECT_EQ(mf.slowdown.avg, mi.slowdown.avg);
      EXPECT_EQ(mf.avg_utilization, mi.avg_utilization);
      ASSERT_EQ(mf.per_link.size(), mi.per_link.size());
      for (std::size_t l = 0; l < mf.per_link.size(); ++l) {
        EXPECT_EQ(mf.per_link[l].busy_ms, mi.per_link[l].busy_ms);
        EXPECT_EQ(mf.per_link[l].bytes, mi.per_link[l].bytes);
      }
      // The stats rode through the metrics pipeline: the full run counted
      // only full solves, the incremental run the split.
      EXPECT_EQ(mf.tm_solve_stats.incremental_solves, 0u);
      EXPECT_EQ(mf.tm_solve_stats.full_solves,
                mi.tm_solve_stats.full_solves +
                    mi.tm_solve_stats.incremental_solves);
    }
  }
}

}  // namespace
}  // namespace apt
