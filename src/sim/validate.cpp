#include "sim/validate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/intervals.hpp"

namespace apt::sim {

namespace {
constexpr double kTol = 1e-9;

bool close(double a, double b) { return std::abs(a - b) <= kTol * std::max({1.0, std::abs(a), std::abs(b)}); }

/// Per-link transfer aggregation for the capacity check: under fair
/// sharing a link is work-conserving, so the bytes it delivers can never
/// exceed bandwidth × (time it spent with >= 1 draining message). The
/// check pools every transfer's drain interval [drain_start, finish],
/// merges the union, and compares total bytes against capacity over it —
/// an invariant that holds for any schedule the transfer manager can
/// produce and fails for any over-capacity one.
struct LinkLoad {
  double bytes = 0.0;
  std::vector<Interval> drains;
};

/// Checks one run's transfer records (times already absolute). `tag`
/// prefixes messages; `exec_start_of(dst)` resolves the consumer's start.
template <typename ExecStartFn>
void check_transfers(const std::vector<TransferRecord>& transfers,
                     const System& system, const std::string& tag,
                     const ExecStartFn& exec_start_of,
                     std::vector<LinkLoad>& loads,
                     std::vector<Violation>& out) {
  const net::Topology& topology = system.topology();
  auto fail = [&](std::string msg) {
    out.push_back(Violation{std::move(msg)});
  };
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const TransferRecord& t = transfers[i];
    const std::string ttag = tag + "transfer " + std::to_string(i);
    if (t.path.empty()) {
      fail(ttag + ": empty route (local pairs move no message)");
      continue;
    }
    bool links_ok = true;
    TimeMs route_latency = 0.0;
    double bottleneck_gbps = std::numeric_limits<double>::infinity();
    for (const net::LinkId link : t.path) {
      if (link == net::kNoLink || link >= topology.link_count()) {
        fail(ttag + ": invalid link id");
        links_ok = false;
        break;
      }
      route_latency += topology.latency_ms(link);
      bottleneck_gbps = std::min(bottleneck_gbps,
                                 topology.bandwidth_gbps(link));
    }
    if (!links_ok) continue;
    if (t.bytes < 0.0) fail(ttag + ": negative byte count");
    if (t.drain_start + kTol < t.start || t.finish + kTol < t.drain_start)
      fail(ttag + ": start/drain/finish out of order");
    if (!close(t.drain_start, t.start + route_latency))
      fail(ttag + ": drain_start != start + route head latency");
    // No transfer can beat its whole uncontended route to itself: head
    // latency summed over the hops, bytes at the bottleneck link's rate.
    const TimeMs min_duration =
        route_latency + t.bytes / (bottleneck_gbps * 1e6);
    if (t.finish - t.start + kTol * std::max(1.0, min_duration) <
        min_duration)
      fail(ttag + ": faster than the uncontended route");
    const TimeMs consumer_start = exec_start_of(t.dst);
    if (consumer_start + kTol < t.finish)
      fail(ttag + ": consumer kernel " + std::to_string(t.dst) +
           " starts before the message is delivered");
    // The message occupies every link of its route for its whole drain, so
    // its bytes and busy interval count against each hop's capacity.
    for (const net::LinkId link : t.path) {
      LinkLoad& load = loads[link];
      load.bytes += t.bytes;
      load.drains.emplace_back(t.drain_start, t.finish);
    }
  }
}

/// Resolves a transfer's consumer kernel to its exec_start (lowest() for an
/// out-of-range id, which check_transfers then reports) — the one rule both
/// the closed- and open-system validators share.
auto exec_start_resolver(const SimResult& result) {
  return [&result](dag::NodeId dst) {
    return dst < result.schedule.size()
               ? result.schedule[dst].exec_start
               : std::numeric_limits<TimeMs>::lowest();
  };
}

/// Checks one run's hedge records against its schedule: at most one
/// episode per kernel, valid distinct processors, the schedule entry is
/// the winning attempt, and the losing attempt was cancelled exactly at
/// the winner's finish. The loser's occupation span is handed to
/// `add_loser_span(proc, from, to, node)` so the caller can pool it into
/// its processor-exclusivity check — a cancelled attempt occupied real
/// processor time and must not overlap anything else.
template <typename AddLoserSpan>
void check_hedges(const std::vector<HedgeRecord>& hedges,
                  const SimResult& result, const System& system,
                  const std::string& tag, const AddLoserSpan& add_loser_span,
                  std::vector<Violation>& out) {
  auto fail = [&](std::string msg) {
    out.push_back(Violation{std::move(msg)});
  };
  std::vector<bool> hedged(result.schedule.size(), false);
  for (std::size_t i = 0; i < hedges.size(); ++i) {
    const HedgeRecord& h = hedges[i];
    const std::string htag = tag + "hedge " + std::to_string(i);
    if (h.node >= result.schedule.size()) {
      fail(htag + ": invalid kernel id");
      continue;
    }
    if (hedged[h.node])
      fail(htag + ": kernel " + std::to_string(h.node) +
           " hedged more than once");
    hedged[h.node] = true;
    if (h.primary_proc == kInvalidProc ||
        h.primary_proc >= system.proc_count() ||
        h.replica_proc == kInvalidProc ||
        h.replica_proc >= system.proc_count()) {
      fail(htag + ": invalid processor");
      continue;
    }
    if (h.primary_proc == h.replica_proc)
      fail(htag + ": replica raced on the primary's own processor");
    const ScheduledKernel& k = result.schedule[h.node];
    const ProcId winner_proc = h.replica_won ? h.replica_proc
                                             : h.primary_proc;
    if (k.proc != winner_proc)
      fail(htag + ": schedule entry does not describe the winning attempt");
    if (!close(h.winner_finish_ms, k.finish_time))
      fail(htag + ": winner finish != the kernel's scheduled finish");
    if (!close(h.cancelled_ms, h.winner_finish_ms))
      fail(htag + ": loser not cancelled at the winner's finish (exactly "
                  "one attempt may win)");
    if (h.cancelled_ms + kTol < h.loser_start_ms)
      fail(htag + ": negative wasted time (cancelled before the loser "
                  "started)");
    if (h.winner_finish_ms + kTol < h.launched_ms)
      fail(htag + ": replica launched after the race resolved");
    add_loser_span(h.replica_won ? h.primary_proc : h.replica_proc,
                   h.loser_start_ms, h.cancelled_ms, h.node);
  }
}

void check_link_capacity(const System& system, std::vector<LinkLoad>& loads,
                         std::vector<Violation>& out) {
  const net::Topology& topology = system.topology();
  for (net::LinkId l = 0; l < loads.size(); ++l) {
    LinkLoad& load = loads[l];
    if (load.drains.empty()) continue;
    const TimeMs busy = merge_union(load.drains);
    const double capacity = topology.bandwidth_gbps(l) * 1e6 * busy;
    if (load.bytes > capacity + kTol * std::max(1.0, capacity))
      out.push_back(Violation{
          "link " + topology.link_name(l) + ": delivered " +
          std::to_string(load.bytes) + " bytes in " + std::to_string(busy) +
          " busy ms — exceeds capacity " + std::to_string(capacity)});
  }
}

/// Occupation interval of one kernel attempt, remembered across instances.
struct Span {
  std::size_t app;
  dag::NodeId node;
  TimeMs from;
  TimeMs to;
};

/// Everything the validators check about one instance on its own: the
/// per-kernel timeline and precedence (readiness gated on `arrival_ms` +
/// the node's release offset), its transfer records (bytes pooled into
/// `loads`) and its hedge records. Every occupation span — cancelled hedge
/// losers included — joins `by_proc` for the exclusivity sweep. `prefix`
/// names the instance in messages ("" in a closed run). Returns false,
/// having checked nothing else, when the schedule does not cover the DAG.
bool check_instance(const dag::Dag& dag, TimeMs arrival_ms,
                    const SimResult& result, const System& system,
                    std::size_t app, const std::string& prefix,
                    std::vector<std::vector<Span>>& by_proc,
                    std::vector<LinkLoad>& loads,
                    std::vector<Violation>& out) {
  auto fail = [&](std::string msg) {
    out.push_back(Violation{std::move(msg)});
  };
  if (result.schedule.size() != dag.node_count()) {
    fail(prefix + "schedule size " + std::to_string(result.schedule.size()) +
         " != node count " + std::to_string(dag.node_count()));
    return false;
  }
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
    const ScheduledKernel& k = result.schedule[n];
    const std::string tag = prefix + "node " + std::to_string(n);
    if (k.node != n) fail(tag + ": record/node index mismatch");
    if (k.proc == kInvalidProc || k.proc >= system.proc_count()) {
      fail(tag + ": invalid processor");
      continue;
    }
    if (k.ready_time < 0.0 || k.assign_time + kTol < k.ready_time)
      fail(tag + ": assigned before ready");
    if (k.ready_time + kTol < arrival_ms + dag.node(n).release_ms)
      fail(tag + ": ready before its arrival/release instant");
    if (k.exec_start + kTol < k.assign_time)
      fail(tag + ": execution before assignment");
    if (!close(k.finish_time, k.exec_start + k.exec_ms))
      fail(tag + ": finish != exec_start + exec_ms");
    for (const dag::NodeId pred : dag.predecessors(n)) {
      const ScheduledKernel& pk = result.schedule[pred];
      if (k.exec_start + kTol < pk.finish_time)
        fail(tag + ": starts before predecessor " + std::to_string(pred) +
             " finishes");
      if (k.ready_time + kTol < pk.finish_time)
        fail(tag + ": marked ready before predecessor " +
             std::to_string(pred) + " finished");
    }
    by_proc[k.proc].push_back(Span{app, n, k.occupied_from(), k.finish_time});
  }
  check_transfers(result.transfers, system, prefix,
                  exec_start_resolver(result), loads, out);
  check_hedges(result.hedges, result, system, prefix,
               [&](ProcId proc, TimeMs from, TimeMs to, dag::NodeId node) {
                 by_proc[proc].push_back(Span{app, node, from, to});
               },
               out);
  return true;
}

/// Processor exclusivity: the occupation intervals [occupied_from, finish)
/// of attempts sharing a processor never overlap, whichever instance they
/// belong to. `name_apps` adds the instance to each message.
void check_exclusivity(const System& system,
                       std::vector<std::vector<Span>>& by_proc, bool name_apps,
                       std::vector<Violation>& out) {
  auto name = [&](const Span& s) {
    return (name_apps ? "app " + std::to_string(s.app) + " " : "") +
           "kernel " + std::to_string(s.node);
  };
  for (ProcId p = 0; p < system.proc_count(); ++p) {
    std::vector<Span>& spans = by_proc[p];
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.from != b.from) return a.from < b.from;
      if (a.app != b.app) return a.app < b.app;
      return a.node < b.node;
    });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].from + kTol < spans[i - 1].to)
        out.push_back(Violation{"processor " + system.processor(p).name +
                                ": " + name(spans[i - 1]) + " overlaps " +
                                name(spans[i])});
    }
  }
}
}  // namespace

std::vector<Violation> validate_schedule(const dag::Dag& dag,
                                         const System& system,
                                         const CostModel& cost,
                                         const SimResult& result) {
  std::vector<Violation> out;
  auto fail = [&](std::string msg) { out.push_back(Violation{std::move(msg)}); };
  std::vector<std::vector<Span>> by_proc(system.proc_count());
  std::vector<LinkLoad> loads(system.topology().link_count());
  if (!check_instance(dag, 0.0, result, system, 0, "", by_proc, loads, out))
    return out;
  check_link_capacity(system, loads, out);
  check_exclusivity(system, by_proc, false, out);

  // Closed-run extras: realized durations against the cost model, and the
  // makespan.
  TimeMs latest = 0.0;
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
    const ScheduledKernel& k = result.schedule[n];
    latest = std::max(latest, k.finish_time);
    if (k.proc == kInvalidProc || k.proc >= system.proc_count()) continue;
    const std::string tag = "node " + std::to_string(n);
    if (!(k.noise_mult > 0.0))
      fail(tag + ": non-positive noise multiplier");
    // Under service-time noise the realized duration is the cost model's
    // nominal time scaled by the recorded multiplier; with noise off the
    // multiplier is exactly 1.0 and this is the plain cost-model check.
    const TimeMs expected_exec =
        cost.exec_time_ms(dag, n, system.processor(k.proc)) * k.noise_mult;
    if (!close(k.exec_ms, expected_exec))
      fail(tag + ": exec_ms " + std::to_string(k.exec_ms) +
           " != cost model × noise_mult " + std::to_string(expected_exec));
  }
  if (!dag.empty() && !close(result.makespan, latest))
    fail("makespan " + std::to_string(result.makespan) +
         " != latest finish " + std::to_string(latest));
  return out;
}

std::vector<Violation> validate_stream_schedule(
    const System& system, const std::vector<StreamAppView>& apps) {
  std::vector<Violation> out;
  std::vector<std::vector<Span>> by_proc(system.proc_count());
  // Link loads and processor spans pool ACROSS apps: the links and the
  // processors are shared by every instance.
  std::vector<LinkLoad> loads(system.topology().link_count());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const StreamAppView& view = apps[a];
    const std::string prefix = "app " + std::to_string(a) + " ";
    if (view.dag == nullptr || view.result == nullptr) {
      out.push_back(Violation{prefix + "null dag/result"});
      continue;
    }
    check_instance(*view.dag, view.arrival_ms, *view.result, system, a,
                   prefix, by_proc, loads, out);
  }
  check_link_capacity(system, loads, out);
  check_exclusivity(system, by_proc, true, out);
  return out;
}

TimeMs critical_path_lower_bound_ms(const dag::Dag& dag, const System& system,
                                    const CostModel& cost) {
  if (dag.empty()) return 0.0;
  std::vector<TimeMs> best(dag.node_count(), 0.0);
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
    TimeMs b = std::numeric_limits<TimeMs>::infinity();
    for (const Processor& p : system.processors())
      b = std::min(b, cost.exec_time_ms(dag, n, p));
    best[n] = b;
  }
  std::vector<TimeMs> longest(dag.node_count(), 0.0);
  TimeMs bound = 0.0;
  for (const dag::NodeId n : dag.topological_order()) {
    longest[n] += best[n];
    bound = std::max(bound, longest[n]);
    for (const dag::NodeId s : dag.successors(n))
      longest[s] = std::max(longest[s], longest[n]);
  }
  return bound;
}

TimeMs makespan_lower_bound_ms(const dag::Dag& dag, const System& system,
                               const CostModel& cost) {
  if (dag.empty() || system.proc_count() == 0) return 0.0;
  TimeMs total_best = 0.0;
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
    TimeMs b = std::numeric_limits<TimeMs>::infinity();
    for (const Processor& p : system.processors())
      b = std::min(b, cost.exec_time_ms(dag, n, p));
    total_best += b;
  }
  const TimeMs area = total_best / static_cast<double>(system.proc_count());
  return std::max(area, critical_path_lower_bound_ms(dag, system, cost));
}

}  // namespace apt::sim
