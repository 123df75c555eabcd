// Differential test: the cost-row-bucketed MET, APT (every variant) and
// SPN against the plain FIFO scans they replaced, and AG/AG-net, which
// decide on O(1) bounds of each processor's queued work, against the
// exact fold over every queue.
//
// The reference policies below are the front-to-back scans over a snapshot
// of the ready set, querying the scheduler context per kernel. The
// bucketed policies visit only the cost rows that can act; they must make
// the same decisions, at the same instants, in the same order, and so
// produce the same schedules bit for bit — over closed cells of every DAG
// family on an ideal and a contended fabric, with noise on and off, with
// hedging, and over deep stream bursts. A probe then checks the bounds
// themselves on every processor at every pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/apt.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "obs/trace_sink.hpp"
#include "policies/ag.hpp"
#include "policies/met.hpp"
#include "policies/selection.hpp"
#include "policies/spn.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "stream/stream_engine.hpp"

namespace apt {
namespace {

// --- reference policies: the FIFO scans ------------------------------------

class FifoMet final : public sim::Policy {
 public:
  std::string name() const override { return "fifo-MET"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (const dag::NodeId node : ready) {
      if (const auto proc = policies::idle_optimal_proc(ctx, node))
        ctx.assign(node, *proc);
    }
  }
};

class FifoSpn final : public sim::Policy {
 public:
  std::string name() const override { return "fifo-SPN"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    for (;;) {
      const std::vector<dag::NodeId> ready = ctx.ready();
      const auto& idle = ctx.idle_processors();
      if (ready.empty() || idle.empty()) return;
      dag::NodeId best_node = dag::kInvalidNode;
      sim::ProcId best_proc = sim::kInvalidProc;
      sim::TimeMs best_time = 0.0;
      for (const dag::NodeId node : ready) {
        for (const sim::ProcId proc : idle) {
          const sim::TimeMs t = ctx.exec_time_ms(node, proc);
          if (best_node == dag::kInvalidNode || t < best_time) {
            best_node = node;
            best_proc = proc;
            best_time = t;
          }
        }
      }
      ctx.assign(best_node, best_proc);
    }
  }
};

class FifoApt final : public sim::Policy {
 public:
  explicit FifoApt(core::AptOptions options) : options_(options) {}
  std::string name() const override { return "fifo-APT"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (const dag::NodeId node : ready) {
      if (const auto pmin = policies::idle_optimal_proc(ctx, node)) {
        ctx.assign(node, *pmin);
        continue;
      }
      if (!mq_) {
        mq_ = options_.rank_quantile > 0.0
                  ? sim::noise_quantile_multiplier(ctx.noise(),
                                                   options_.rank_quantile)
                  : 1.0;
      }
      const double mq = *mq_;
      const sim::TimeMs x = ctx.min_exec_time_ms(node);
      const sim::TimeMs threshold = options_.alpha * x * mq;
      std::optional<sim::ProcId> alt;
      sim::TimeMs alt_cost = std::numeric_limits<sim::TimeMs>::infinity();
      for (const sim::ProcId proc : ctx.idle_processors()) {
        sim::TimeMs cost = ctx.exec_time_ms(node, proc) * mq;
        if (options_.rank_quantile > 0.0) {
          cost += ctx.transfer_estimate(node, proc)
                      .quantile_ms(options_.rank_quantile);
        } else if (options_.comm_aware) {
          cost += ctx.transfer_estimate(node, proc).total_ms();
        } else if (options_.transfer_aware) {
          cost += ctx.transfer_estimate(node, proc).stall_ms;
        }
        if (cost <= threshold && cost < alt_cost) {
          alt = proc;
          alt_cost = cost;
        }
      }
      if (!alt) continue;
      if (options_.consider_remaining_time) {
        const sim::ProcId pmin = ctx.min_exec_proc(node);
        const sim::TimeMs wait_cost = (ctx.busy_until(pmin) - ctx.now()) + x;
        if (wait_cost <= alt_cost) continue;
      }
      ctx.assign(node, *alt, /*alternative=*/true);
    }
  }

 private:
  core::AptOptions options_;
  std::optional<double> mq_;  ///< m_q, fixed per run
};

/// AG's exact rule, folding every queue: τ = queued_work_ms + t on every
/// processor, the first smallest wins.
class FoldAg final : public sim::Policy {
 public:
  explicit FoldAg(bool comm_aware) : comm_aware_(comm_aware) {}
  std::string name() const override { return "fold-AG"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    for (const dag::NodeId node : ctx.ready()) {
      sim::ProcId best = 0;
      sim::TimeMs best_tau = 0.0;
      for (sim::ProcId proc = 0; proc < ctx.system().proc_count(); ++proc) {
        const sim::TransferEstimate est = ctx.transfer_estimate(node, proc);
        const sim::TimeMs tau =
            ctx.queued_work_ms(proc) +
            (comm_aware_ ? est.total_ms() : est.stall_ms);
        if (proc == 0 || tau < best_tau) {
          best = proc;
          best_tau = tau;
        }
      }
      ctx.enqueue(node, best);
    }
  }

 private:
  bool comm_aware_;
};

// --- the policy pairs under test ---------------------------------------------

struct Pair {
  std::string name;
  std::function<std::unique_ptr<sim::Policy>()> bucketed;
  std::function<std::unique_ptr<sim::Policy>()> reference;
};

Pair apt_pair(const std::string& name, core::AptOptions options) {
  return {name, [options] { return std::make_unique<core::Apt>(options); },
          [options] { return std::make_unique<FifoApt>(options); }};
}

std::vector<Pair> all_pairs() {
  std::vector<Pair> pairs;
  pairs.push_back({"met", [] { return std::make_unique<policies::Met>(); },
                   [] { return std::make_unique<FifoMet>(); }});
  pairs.push_back({"spn", [] { return std::make_unique<policies::Spn>(); },
                   [] { return std::make_unique<FifoSpn>(); }});
  const std::pair<const char*, double> alphas[] = {
      {"apt:1", 1.0}, {"apt:1.5", 1.5}, {"apt:4", 4.0}, {"apt:16", 16.0}};
  for (const auto& [name, alpha] : alphas) {
    core::AptOptions o;
    o.alpha = alpha;
    pairs.push_back(apt_pair(name, o));
  }
  core::AptOptions c;
  c.comm_aware = true;
  pairs.push_back(apt_pair("apt-c:4", c));
  core::AptOptions q = c;
  q.rank_quantile = 0.95;
  pairs.push_back(apt_pair("apt-q:4", q));
  core::AptOptions r;
  r.consider_remaining_time = true;
  pairs.push_back(apt_pair("apt-r:4", r));
  core::AptOptions nt;
  nt.transfer_aware = false;
  pairs.push_back(apt_pair("apt-no-transfer:4", nt));
  for (const bool comm_aware : {false, true}) {
    policies::AgOptions ag;
    ag.comm_aware = comm_aware;
    pairs.push_back(
        {comm_aware ? "ag-net" : "ag",
         [ag] { return std::make_unique<policies::AdaptiveGreedy>(ag); },
         [comm_aware] { return std::make_unique<FoldAg>(comm_aware); }});
  }
  return pairs;
}

// --- recording ---------------------------------------------------------------

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Every decision instant, in emission order, as raw words.
class DecisionRecorder final : public obs::TraceSink {
 public:
  void kernel_span(const obs::KernelSpan&) override {}
  void transfer_span(const obs::TransferSpan&) override {}
  void instant(const obs::InstantEvent& ev) override {
    if (ev.kind != obs::InstantKind::kDecision) return;
    words.insert(words.end(), {ev.instance, ev.node, ev.proc, bits(ev.time),
                               static_cast<std::uint64_t>(ev.detail[0])});
    ++decisions;
  }
  std::vector<std::uint64_t> words;
  std::size_t decisions = 0;
};

void append(std::vector<std::uint64_t>& out, const sim::SimResult& r) {
  out.push_back(bits(r.makespan));
  for (const sim::ScheduledKernel& k : r.schedule) {
    out.insert(out.end(),
               {k.node, k.proc, bits(k.ready_time), bits(k.assign_time),
                bits(k.exec_start), bits(k.exec_ms), bits(k.finish_time),
                bits(k.transfer_ms), static_cast<std::uint64_t>(k.alternative),
                bits(k.noise_mult)});
  }
  for (const sim::TransferRecord& t : r.transfers)
    out.insert(out.end(), {t.src, t.dst, t.from, t.to, bits(t.start),
                           bits(t.finish)});
  for (const sim::HedgeRecord& h : r.hedges)
    out.insert(out.end(), {h.node, h.replica_proc, bits(h.launched_ms),
                           bits(h.winner_finish_ms)});
}

/// One run's decisions and schedules.
struct Run {
  std::vector<std::uint64_t> decisions;
  std::size_t decision_count = 0;
  std::vector<std::uint64_t> schedule;
};

void expect_same(const Run& bucketed, const Run& reference,
                 const std::string& cell) {
  ASSERT_GT(reference.decision_count, 0u) << cell;
  EXPECT_EQ(bucketed.decision_count, reference.decision_count) << cell;
  EXPECT_TRUE(bucketed.decisions == reference.decisions)
      << cell << ": decision sequence differs";
  EXPECT_TRUE(bucketed.schedule == reference.schedule)
      << cell << ": schedule differs";
}

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
  noise.seed = 5;
  return noise;
}

// --- closed cells ----------------------------------------------------------

Run run_closed(sim::Policy& policy, const dag::Dag& graph,
               const sim::System& system, const sim::CostModel& cost,
               bool noise, bool hedging) {
  DecisionRecorder recorder;
  sim::EngineOptions options;
  options.noise = make_noise(noise);
  options.hedging.enabled = hedging;
  options.hedging.min_samples = 4;
  options.sink = &recorder;
  const sim::SimResult r =
      sim::Engine(graph, system, cost, options).run(policy);
  Run run;
  run.decisions = std::move(recorder.words);
  run.decision_count = recorder.decisions;
  append(run.schedule, r);
  return run;
}

TEST(BucketedPolicies, ClosedCellsMatchTheFifoScan) {
  const lut::LookupTable table = lut::paper_lookup_table();
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  struct Config {
    const char* topology;
    bool noise;
    bool hedging;
  };
  const Config configs[] = {{"ideal", false, false},
                            {"ideal", true, false},
                            {"mesh:2x2", false, false},
                            {"mesh:2x2", true, false},
                            {"ideal", true, true}};
  const std::vector<Pair> pairs = all_pairs();
  for (const char* family : {"type1", "type2", "layered", "cholesky"}) {
    for (const std::uint64_t seed : {1, 2}) {
      const dag::Dag graph = scenario::generate(family, 60, seed, pool);
      for (const Config& c : configs) {
        const sim::System system = make_system(c.topology);
        const sim::LutCostModel cost(table, system);
        for (const Pair& pair : pairs) {
          const std::string cell = std::string(family) + "/" +
                                   std::to_string(seed) + " " + pair.name +
                                   " " + c.topology + " noise=" +
                                   std::to_string(c.noise) +
                                   " hedge=" + std::to_string(c.hedging);
          const auto bucketed = pair.bucketed();
          const auto reference = pair.reference();
          expect_same(
              run_closed(*bucketed, graph, system, cost, c.noise, c.hedging),
              run_closed(*reference, graph, system, cost, c.noise,
                         c.hedging),
              cell);
        }
      }
    }
  }
}

// --- stream cells ------------------------------------------------------------

Run run_stream(sim::Policy& policy, const char* family, std::size_t apps,
               const std::string& topology, bool noise) {
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  const sim::System system = make_system(topology);
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  DecisionRecorder recorder;
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::poisson(0.005, 3);
  opts.max_apps = apps;
  opts.record_schedules = true;
  opts.noise = make_noise(noise);
  opts.sink = &recorder;
  stream::StreamEngine engine(
      system, cost,
      [&](std::size_t i) {
        return scenario::generate(family, 46, 100 + i % 8, pool);
      },
      opts);
  const stream::StreamOutcome outcome = engine.run(policy);
  Run run;
  run.decisions = std::move(recorder.words);
  run.decision_count = recorder.decisions;
  for (const stream::StreamAppSchedule& app : outcome.schedules) {
    run.schedule.push_back(app.index);
    run.schedule.push_back(bits(app.arrival_ms));
    append(run.schedule, app.result);
  }
  return run;
}

// A burst far above capacity: the ready set grows to thousands of kernels
// over a handful of cost rows — the regime the buckets exist for. The
// reference scans are quadratic in it, so unoptimised builds run a shorter
// (still deep) burst.
#ifdef NDEBUG
constexpr std::size_t kBurstApps = 480;
#else
constexpr std::size_t kBurstApps = 120;
#endif

TEST(BucketedPolicies, DeepBurstMatchesTheFifoScan) {
  for (const Pair& pair : all_pairs()) {
    // The headline policies get the full burst; the variants a shorter one.
    const bool headline = pair.name == "met" || pair.name == "spn" ||
                          pair.name == "apt:4" || pair.name == "ag" ||
                          pair.name == "ag-net";
    const std::size_t apps = headline ? kBurstApps : 60;
    const auto bucketed = pair.bucketed();
    const auto reference = pair.reference();
    expect_same(run_stream(*bucketed, "type1", apps, "ideal", false),
                run_stream(*reference, "type1", apps, "ideal", false),
                pair.name + " burst of " + std::to_string(apps));
  }
}

TEST(BucketedPolicies, NoisyContendedStreamsMatchTheFifoScan) {
  for (const Pair& pair : all_pairs()) {
    for (const char* family : {"type1", "layered"}) {
      const auto bucketed = pair.bucketed();
      const auto reference = pair.reference();
      expect_same(run_stream(*bucketed, family, 12, "mesh:2x2", true),
                  run_stream(*reference, family, 12, "mesh:2x2", true),
                  pair.name + " " + family + " mesh:2x2 noise=1");
    }
  }
}

// --- the queued-work bounds --------------------------------------------------

/// Enqueues I round-robin over every processor, whatever the load, so each
/// queue mixes short and long kernels: the worst case for cancellation in
/// the engine's running sums.
class RoundRobinEnqueue final : public sim::Policy {
 public:
  std::string name() const override { return "round-robin"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    for (const dag::NodeId node : ctx.ready())
      ctx.enqueue(node, next_++ % ctx.system().proc_count());
  }

 private:
  sim::ProcId next_ = 0;
};

/// Starts each ready kernel on an idle processor when there is one (often
/// the kernel's slow category) and otherwise queues it on its fastest: a
/// long running kernel ahead of a queue of short ones, where the fold's
/// own rounding, not the running sum's, dominates the bound.
class IdleElseFastest final : public sim::Policy {
 public:
  std::string name() const override { return "idle-else-fastest"; }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    for (const dag::NodeId node : ctx.ready()) {
      const std::vector<sim::ProcId>& idle = ctx.idle_processors();
      if (!idle.empty())
        ctx.assign(node, idle.front());
      else
        ctx.enqueue(node, ctx.min_exec_proc(node));
    }
  }
};

/// Runs `inner`, checking before and after each of its passes that
/// queued_work_bounds brackets the exact fold on every processor and is
/// exactly 0 on idle ones.
class BoundsProbe final : public sim::Policy {
 public:
  explicit BoundsProbe(std::unique_ptr<sim::Policy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return "probe-" + inner_->name(); }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override {
    check(ctx);
    inner_->on_event(ctx);
    check(ctx);
  }

  std::size_t deep_checks = 0;  ///< checks of a queue of >= 2 kernels
  std::string first_failure;    ///< empty while every check held

 private:
  void check(const sim::SchedulerContext& ctx) {
    for (sim::ProcId p = 0; p < ctx.system().proc_count(); ++p) {
      const sim::SchedulerContext::WorkBounds b = ctx.queued_work_bounds(p);
      const sim::TimeMs exact = ctx.queued_work_ms(p);
      if (ctx.queue_length(p) >= 2) ++deep_checks;
      const bool ok = b.lo <= exact && exact <= b.hi &&
                      (!ctx.is_idle(p) || (b.lo == 0.0 && b.hi == 0.0));
      if (!ok && first_failure.empty()) {
        std::ostringstream out;
        out.precision(17);
        out << "t=" << ctx.now() << " proc " << p << ": [" << b.lo << ", "
            << b.hi << "] vs " << exact;
        first_failure = out.str();
      }
    }
  }

  std::unique_ptr<sim::Policy> inner_;
};

void expect_bounds_hold(std::unique_ptr<sim::Policy> inner,
                        const lut::LookupTable& table, std::size_t apps) {
  const sim::System system = make_system("ideal");
  const sim::LutCostModel cost(table, system);
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  BoundsProbe probe(std::move(inner));
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::poisson(0.005, 3);
  opts.max_apps = apps;
  stream::StreamEngine engine(
      system, cost,
      [&](std::size_t i) {
        return scenario::generate("type1", 46, 100 + i % 8, pool);
      },
      opts);
  const std::string cell = probe.name() + " x" + std::to_string(apps);
  EXPECT_EQ(engine.run(probe).metrics.apps_completed, apps) << cell;
  EXPECT_TRUE(probe.first_failure.empty()) << cell << ": "
                                           << probe.first_failure;
  EXPECT_GT(probe.deep_checks, 0u) << cell;
}

TEST(QueuedWorkBounds, BracketTheFoldOnAPaperBurst) {
  const lut::LookupTable table = lut::paper_lookup_table();
  expect_bounds_hold(std::make_unique<policies::AdaptiveGreedy>(), table,
                     kBurstApps);
  expect_bounds_hold(std::make_unique<RoundRobinEnqueue>(), table, 60);
}

TEST(QueuedWorkBounds, BracketTheFoldUnderCancellation) {
  // Rows whose slowest category is 10^6 times the fastest, over base
  // times spread 10^3 apart: a queue's running sum adds and removes
  // kernels nine orders of magnitude apart.
  lut::SyntheticLutSpec spec;
  spec.heterogeneity = 1e6;
  spec.spread = 1e3;
  spec.seed = 7;
  const lut::LookupTable table = lut::synthetic_lookup_table(spec);
  expect_bounds_hold(std::make_unique<RoundRobinEnqueue>(), table, 60);
  expect_bounds_hold(std::make_unique<IdleElseFastest>(), table, 60);
  policies::AgOptions net;
  net.comm_aware = true;
  expect_bounds_hold(std::make_unique<policies::AdaptiveGreedy>(net), table,
                     kBurstApps);
}

}  // namespace
}  // namespace apt
