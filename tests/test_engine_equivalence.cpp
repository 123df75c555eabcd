// Engine equivalence golden: a per-cell digest of every simulated fact
// (each ScheduledKernel field, every transfer and hedge record, the
// makespan) over a seeded grid of closed runs and multi-arrival stream runs,
// byte-compared against tests/golden/engine_equivalence.txt.
//
// The grid covers what no single-arrival comparison does: static policies
// (HEFT, PEFT, min-min, ranked APT), contended closed runs on a routed
// mesh, service-time noise and straggler hedging — plus stream cells with
// overlapping instances under the same noise, hedging and mesh settings.
// Any change to the engine's event order, its arithmetic or the policies'
// view of the system shows up as a named cell whose digest moved.
//
// To regenerate after an intentional behaviour change (justify it in
// CHANGES.md):
//   APT_UPDATE_GOLDEN=1 ./build/test_engine_equivalence
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "stream/stream_engine.hpp"

#ifndef APTSIM_GOLDEN_DIR
#define APTSIM_GOLDEN_DIR "tests/golden"
#endif

namespace apt {
namespace {

/// FNV-1a over the exact bit patterns of the recorded facts.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const sim::SimResult& r) {
    add(r.makespan);
    add(static_cast<std::uint64_t>(r.schedule.size()));
    for (const sim::ScheduledKernel& k : r.schedule) {
      add(static_cast<std::uint64_t>(k.node));
      add(static_cast<std::uint64_t>(k.proc));
      add(k.ready_time);
      add(k.assign_time);
      add(k.exec_start);
      add(k.exec_ms);
      add(k.finish_time);
      add(k.transfer_ms);
      add(static_cast<std::uint64_t>(k.alternative));
      add(k.noise_mult);
    }
    add(static_cast<std::uint64_t>(r.transfers.size()));
    for (const sim::TransferRecord& t : r.transfers) {
      add(static_cast<std::uint64_t>(t.src));
      add(static_cast<std::uint64_t>(t.dst));
      add(static_cast<std::uint64_t>(t.from));
      add(static_cast<std::uint64_t>(t.to));
      add(static_cast<std::uint64_t>(t.path.size()));
      for (const net::LinkId l : t.path) add(static_cast<std::uint64_t>(l));
      add(t.bytes);
      add(t.start);
      add(t.drain_start);
      add(t.finish);
    }
    add(static_cast<std::uint64_t>(r.hedges.size()));
    for (const sim::HedgeRecord& h : r.hedges) {
      add(static_cast<std::uint64_t>(h.node));
      add(static_cast<std::uint64_t>(h.primary_proc));
      add(static_cast<std::uint64_t>(h.replica_proc));
      add(h.launched_ms);
      add(h.loser_start_ms);
      add(h.winner_finish_ms);
      add(h.cancelled_ms);
      add(static_cast<std::uint64_t>(h.replica_won));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

const char* const kFamilies[] = {"type1", "layered", "cholesky"};
const char* const kClosedPolicies[] = {
    "apt:4", "met", "spn", "ag", "ag:recent", "heft", "peft", "minmin",
    "apt-ranked:4"};
const char* const kStreamPolicies[] = {"apt:4", "met", "spn", "ag",
                                       "ag:recent"};
constexpr std::size_t kKernels = 40;

sim::System make_system(const std::string& topology) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(4.0);
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.latency_ms = 0.01;
  return sim::System(cfg);
}

sim::NoiseSpec make_noise(bool on) {
  sim::NoiseSpec noise;
  if (!on) return noise;
  noise.sigma = 0.3;
  noise.heavy_tail_prob = 0.05;
  noise.heavy_tail_multiplier = 8.0;
  noise.seed = 11;
  return noise;
}

sim::HedgeSpec make_hedging(bool on) {
  sim::HedgeSpec hedging;
  hedging.enabled = on;
  hedging.min_samples = 4;
  return hedging;
}

std::string format_line(const std::string& cell, double makespan,
                        std::uint64_t digest) {
  char buf[96];
  std::snprintf(buf, sizeof buf, " makespan=%.17g digest=%016llx", makespan,
                static_cast<unsigned long long>(digest));
  return cell + buf;
}

/// Every cell's line, in a fixed order.
std::vector<std::string> compute_lines() {
  const lut::LookupTable table = lut::paper_lookup_table();
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  std::vector<std::string> lines;

  struct Config {
    const char* topology;
    bool noise;
    bool hedging;
  };
  const Config closed_configs[] = {{"ideal", false, false},
                                   {"ideal", true, false},
                                   {"mesh:2x2", false, false},
                                   {"mesh:2x2", true, false},
                                   {"ideal", true, true}};
  for (const char* family : kFamilies) {
    for (const std::uint64_t seed : {7, 8}) {
      const dag::Dag graph = scenario::generate(family, kKernels, seed, pool);
      for (const Config& c : closed_configs) {
        const sim::System system = make_system(c.topology);
        const sim::LutCostModel cost(table, system);
        for (const char* spec : kClosedPolicies) {
          sim::EngineOptions options;
          options.noise = make_noise(c.noise);
          options.hedging = make_hedging(c.hedging);
          const auto policy = core::make_policy(spec);
          const sim::SimResult r =
              sim::Engine(graph, system, cost, options).run(*policy);
          Digest d;
          d.add(r);
          const std::string cell =
              std::string("closed ") + family + "/" + std::to_string(seed) +
              " " + spec + " " + c.topology + " noise=" +
              (c.noise ? "1" : "0") + " hedge=" + (c.hedging ? "1" : "0");
          lines.push_back(format_line(cell, r.makespan, d.value()));
        }
      }
    }
  }

  const Config stream_configs[] = {{"ideal", true, false},
                                   {"ideal", true, true},
                                   {"mesh:2x2", true, false}};
  for (const char* family : kFamilies) {
    // Two alternating shapes: instances overlap and share pooled tables.
    const dag::Dag shapes[] = {scenario::generate(family, kKernels, 7, pool),
                               scenario::generate(family, kKernels, 8, pool)};
    for (const Config& c : stream_configs) {
      const sim::System system = make_system(c.topology);
      const sim::LutCostModel cost(table, system);
      for (const char* spec : kStreamPolicies) {
        stream::StreamOptions opts;
        opts.arrivals = stream::ArrivalSpec::poisson(2e-4, 5);
        opts.max_apps = 6;
        opts.record_schedules = true;
        opts.noise = make_noise(c.noise);
        opts.hedging = make_hedging(c.hedging);
        stream::StreamEngine engine(
            system, cost, [&](std::size_t i) { return shapes[i % 2]; },
            opts);
        const auto policy = core::make_policy(spec);
        const stream::StreamOutcome outcome = engine.run(*policy);
        Digest d;
        double last = 0.0;
        for (const stream::StreamAppSchedule& app : outcome.schedules) {
          d.add(static_cast<std::uint64_t>(app.index));
          d.add(app.arrival_ms);
          d.add(app.result);
          last = std::max(last, app.result.makespan);
        }
        const std::string cell =
            std::string("stream ") + family + " " + spec + " " + c.topology +
            " noise=" + (c.noise ? "1" : "0") +
            " hedge=" + (c.hedging ? "1" : "0") +
            " apps=" + std::to_string(outcome.schedules.size());
        lines.push_back(format_line(cell, last, d.value()));
      }
    }
  }
  return lines;
}

TEST(EngineEquivalence, EveryCellMatchesTheGoldenDigest) {
  const std::string path =
      std::string(APTSIM_GOLDEN_DIR) + "/engine_equivalence.txt";
  const std::vector<std::string> lines = compute_lines();

  const char* update = std::getenv("APT_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const std::string& line : lines) out << line << '\n';
    GTEST_SKIP() << "rewrote " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size()) << "cell count changed";
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], golden[i]) << "cell " << i;
}

// The grid must actually exercise what it claims to cover.
TEST(EngineEquivalence, GridExercisesHedgingAndTheFabric) {
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  const dag::Dag graph = scenario::generate("layered", kKernels, 7, pool);
  const sim::System mesh = make_system("mesh:2x2");
  const sim::LutCostModel mesh_cost(lut::paper_lookup_table(), mesh);
  const auto apt = core::make_policy("apt:4");
  EXPECT_FALSE(
      sim::Engine(graph, mesh, mesh_cost).run(*apt).transfers.empty());

  const sim::System ideal = make_system("ideal");
  const sim::LutCostModel cost(lut::paper_lookup_table(), ideal);
  std::size_t hedges = 0;
  for (const char* spec : kClosedPolicies) {
    sim::EngineOptions options;
    options.noise = make_noise(true);
    options.hedging = make_hedging(true);
    const auto policy = core::make_policy(spec);
    hedges +=
        sim::Engine(graph, ideal, cost, options).run(*policy).hedges.size();
  }
  EXPECT_GT(hedges, 0u);
}

}  // namespace
}  // namespace apt
