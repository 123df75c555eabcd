// perfbench: the simulator's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--digest-dir DIR] [--record-digests DIR]
//             [--trace-out FILE]
//   perfbench --list-metrics
//
// --trace 0 runs the batch in rounds through the public entry point for S
// seconds in a closed loop, with blocks of set-ups and of a calibration
// workload interleaved, and prints the end-to-end metrics: each pass and
// set-up block is scaled to the calibration's nominal speed (see
// calibration.hpp), setup_s sums each set-up part's median block and
// kernels_per_s each unit's median pass. --trace 1 runs the same timed
// loop, then replays every cell through spans and prints the per-layer
// metrics. Either way every cell's digest is checked: across rounds, against
// the recorded digests of the run's own seed or else of the default seed,
// and in the traced replay against the timed run plus the schedule
// validator. The last stdout line is one JSON object: correct, attempted,
// failed, metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "nogit"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;

/// Share of a cell's wall time its layer spans may leave uncovered; the
/// same figure as the kernels_per_s bound in BENCHMARK.json.
constexpr double kBalanceBound = 0.25;

/// Set-up is timed in parts — making the batch, then each unit's set-up —
/// and each part in blocks: a block repeats the part for kSetupBlockSeconds
/// (at least once), and its sample is the mean time of one repetition,
/// scaled by the calibration sample taken just before it. setup_s sums each
/// part's median sample, as kernels_per_s sums each unit's median pass.
/// Every part runs once before the first round; then, after every unit's
/// pass, parts run in turn until set-up has taken kSetupShare of the time
/// the passes have, so samples spread over the run.
constexpr double kSetupBlockSeconds = 0.005;
constexpr double kSetupShare = 0.1;

/// Cell spans written to the Chrome trace beyond the set-up and cell roots.
constexpr std::size_t kTraceSpanBudget = 200000;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  bool per_layer;
};

// The single list of metrics; BENCHMARK.json must match it (the name test
// in test_perfbench.py compares the two through --list-metrics).
constexpr MetricDef kMetrics[] = {
    {"kernels_per_s", "kernels/s", "higher", false},
    {"setup_s", "s", "lower", false},
    {"peak_rss_mb", "MiB", "lower", false},
    {"policies.on_event_ms", "ms", "lower", true},
    {"policies.on_event_us_p50", "us", "lower", true},
    {"policies.on_event_us_p99", "us", "lower", true},
    {"policies.passes", "count", "lower", true},
    {"policies.decisions", "count", "lower", true},
    {"policies.decisions_per_pass", "ratio", "higher", true},
    {"policies.prepare_ms", "ms", "lower", true},
    {"stream.self_ms", "ms", "lower", true},
    {"stream.events", "count", "lower", true},
    {"stream.ready_compactions", "count", "lower", true},
    {"stream.compactions_per_pass", "ratio", "lower", true},
    {"stream.peak_live_apps", "count", "lower", true},
    {"stream.backlog_exponent", "ratio", "lower", true},
    {"sim.engine_self_ms", "ms", "lower", true},
    {"sim.metrics_ms", "ms", "lower", true},
    {"net.tm_solve_ms", "ms", "lower", true},
    {"net.solves_full", "count", "lower", true},
    {"net.solves_incremental", "count", "lower", true},
    {"net.incremental_frac", "fraction", "higher", true},
    {"net.flows_resolved_per_solve", "ratio", "lower", true},
    {"net.transfers", "count", "lower", true},
    {"scenario.generate_ms", "ms", "lower", true},
    {"scenario.dags", "count", "lower", true},
    {"lut.table_ms", "ms", "lower", true},
    {"core.cell_setup_ms", "ms", "lower", true},
    {"core.cell_ms_p50", "ms", "lower", true},
    {"core.cell_ms_p99", "ms", "lower", true},
    {"core.unattributed_ms", "ms", "lower", true},
    {"core.unbalanced_cells", "count", "lower", true},
    {"obs.trace_overhead_frac", "fraction", "lower", true},
    {"failed_frac", "fraction", "lower", true},
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string digest_dir;
  std::string record_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--digest-dir DIR] "
               "[--record-digests DIR] [--trace-out FILE]\n"
            << "       perfbench --list-metrics\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& m : kMetrics)
        std::cout << (m.per_layer ? "per_layer" : "end_to_end") << " "
                  << m.name << " " << m.unit << " " << m.better << "\n";
      std::exit(0);
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--size" && value == "full") o.size = Size::kFull;
      else if (flag == "--size" && value == "tiny") o.size = Size::kTiny;
      else if (flag == "--digest-dir") o.digest_dir = value;
      else if (flag == "--record-digests") o.record_dir = value;
      else if (flag == "--trace-out") o.trace_out = value;
      else usage("unknown option " + flag + " " + value);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string digest_path(const std::string& dir, const std::string& workload,
                        std::uint64_t seed) {
  return dir + "/" + workload + ".seed" + std::to_string(seed) + ".txt";
}

/// Reads one hex digest per line; false when the file does not exist.
bool read_digests(const std::string& path, std::vector<std::uint32_t>& out) {
  std::ifstream in(path);
  if (!in) return false;
  out.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty())
      out.push_back(static_cast<std::uint32_t>(std::stoul(line, nullptr, 16)));
  }
  return true;
}

void write_digests(const std::string& path,
                   const std::vector<std::uint32_t>& digests) {
  std::ofstream out(path);
  char buf[16];
  for (const std::uint32_t d : digests) {
    std::snprintf(buf, sizeof buf, "%08x", d);
    out << buf << "\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Cells whose digest differs from the reference (all, on a size mismatch).
std::size_t mismatches(const std::vector<std::uint32_t>& got,
                       const std::vector<std::uint32_t>& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] != want[i];
  return bad;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string provenance_json(const Options& o, const Workload& w) {
  const std::time_t now = std::time(nullptr);
  char date[32];
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::ostringstream out;
  out << "{\"benchmark\": \"perfbench\", \"workload\": \"" << o.workload
      << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
      << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"size\": \""
      << (o.size == Size::kTiny ? "tiny" : "full")
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"git_describe\": \""
      << PERFBENCH_GIT_DESCRIBE << "\", \"date\": \"" << date
      << "\", \"params\": " << workload_json(w) << "}";
  return out.str();
}

/// Failure bookkeeping shared by every phase of a run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(std::size_t cells, std::size_t bad) {
    attempted += cells;
    failed += std::min(bad, cells);
  }
};

struct Timed {
  /// Host seconds of each pass, scaled to the calibration's nominal speed.
  std::vector<std::vector<double>> unit_scaled;  ///< [unit][round]
  std::vector<double> round_seconds;             ///< host seconds, unscaled
  std::vector<std::uint32_t> digests;  ///< of the first round
  std::uint64_t kernels = 0;           ///< of one round

  /// The sum over units of each unit's median scaled pass.
  double scaled_seconds() const {
    double sum = 0.0;
    for (const std::vector<double>& s : unit_scaled) sum += median(s);
    return sum;
  }
};

/// Set-up samples per part: part 0 makes the batch, part u + 1 sets up
/// unit u. Every repetition is built and torn down.
class SetupSamples {
 public:
  explicit SetupSamples(const Batch& batch)
      : batch_(batch), parts_(batch.units() + 1) {}

  /// Times one block of the next part in turn; `scale` maps its host time
  /// to the calibration's nominal speed.
  void take(double scale) {
    std::size_t reps = 0;
    double elapsed = 0.0;
    const auto t0 = Clock::now();
    do {
      if (next_ == 0)
        make_batch(*batch_.workload, batch_.seed);
      else
        set_up_unit(batch_, next_ - 1);
      ++reps;
      elapsed = seconds_since(t0);
    } while (elapsed < kSetupBlockSeconds);
    parts_[next_].push_back(scale * elapsed / static_cast<double>(reps));
    next_ = (next_ + 1) % parts_.size();
  }

  std::size_t parts() const { return parts_.size(); }
  std::size_t blocks() const {
    std::size_t n = 0;
    for (const std::vector<double>& p : parts_) n += p.size();
    return n;
  }
  /// The sum over parts of each part's median sample.
  double seconds() const {
    double sum = 0.0;
    for (const std::vector<double>& p : parts_) sum += median(p);
    return sum;
  }

 private:
  const Batch& batch_;
  std::vector<std::vector<double>> parts_;
  std::size_t next_ = 0;
};

/// Runs rounds — every unit of the batch once through its entry point —
/// until `budget` seconds have passed; every round must reproduce the first
/// round's digests. With `cal` given, a calibration sample follows every
/// pass, and each pass is scaled by the mean of the samples on either side
/// of it. With `setup` given too, set-up blocks are interleaved with the
/// passes (see kSetupShare) and timed into it, so setup_s samples the same
/// stretch of time as the passes.
Timed timed_loop(const Batch& batch, double budget, Tally& tally,
                 Calibration* cal = nullptr, SetupSamples* setup = nullptr) {
  const apt::core::BatchRunner runner(1);
  Timed t;
  t.unit_scaled.resize(batch.units());
  double pass_s = 0.0;
  double setup_spent = 0.0;
  double before = cal ? cal->sample() : Calibration::kNominalSeconds;
  const auto t0 = Clock::now();
  do {
    std::vector<std::uint32_t> digests;
    std::uint64_t kernels = 0;
    double round_s = 0.0;
    for (std::size_t u = 0; u < batch.units(); ++u) {
      BatchRun run;
      try {
        run = run_unit(batch, u, runner);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: unit " << u << " threw: " << e.what() << "\n";
        tally.add(batch.unit_cells(u), batch.unit_cells(u));
        return t;
      }
      tally.add(batch.unit_cells(u), run.insane);
      digests.insert(digests.end(), run.digests.begin(), run.digests.end());
      kernels += run.kernels;
      round_s += run.seconds;
      const double after = cal ? cal->sample() : Calibration::kNominalSeconds;
      t.unit_scaled[u].push_back(
          run.seconds * Calibration::scale(0.5 * (before + after)));
      before = after;
      pass_s += run.seconds;
      while (setup && setup_spent < kSetupShare * pass_s) {
        const auto s0 = Clock::now();
        setup->take(Calibration::scale(after));
        setup_spent += seconds_since(s0);
      }
    }
    if (t.round_seconds.empty()) {
      t.digests = digests;
      t.kernels = kernels;
    } else {
      tally.failed += std::min(mismatches(digests, t.digests), digests.size());
    }
    t.round_seconds.push_back(round_s);
  } while (seconds_since(t0) < budget);
  return t;
}

/// Compares the run against recorded digests: its own seed's when they
/// exist, else one pass of the default seed's batch.
void check_recorded(const Options& o, const Workload& w, const Timed& timed,
                    Tally& tally) {
  if (o.digest_dir.empty()) return;
  std::vector<std::uint32_t> want;
  if (read_digests(digest_path(o.digest_dir, w.name, o.seed), want)) {
    tally.add(timed.digests.size(), mismatches(timed.digests, want));
    std::cout << "check: seed " << o.seed << " against its recorded digests\n";
    return;
  }
  const std::string path = digest_path(o.digest_dir, w.name, kDefaultSeed);
  if (!read_digests(path, want))
    throw std::runtime_error("no recorded digests at " + path);
  const Batch reference = make_batch(w, kDefaultSeed);
  Tally ignored;
  const Timed ref = timed_loop(reference, 0.0, ignored);
  tally.add(reference.cells(), mismatches(ref.digests, want));
  std::cout << "check: default seed " << kDefaultSeed
            << " against its recorded digests\n";
}

void print_result(const Tally& tally,
                  const std::map<std::string, double>& values, bool trace) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if (m.per_layer != trace) continue;
    const double v = values.at(m.name);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << m.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Options& o) {
  const auto process_start = Clock::now();
  const Workload w = make_workload(o.workload, o.size);
  const std::string provenance = provenance_json(o, w);
  std::cout << "provenance: " << provenance << "\n";

  const Batch batch = make_batch(w, o.seed);
  Calibration cal;
  SetupSamples setup(batch);
  const double first = Calibration::scale(cal.sample());
  for (std::size_t p = 0; p < setup.parts(); ++p) setup.take(first);

  Tally tally;
  const Timed timed = timed_loop(batch, o.seconds, tally, &cal, &setup);
  if (!cal.ok())
    throw std::runtime_error("the calibration workload changed its result");
  if (timed.round_seconds.empty()) {
    // A unit threw in the first round: the failure is the result.
    std::map<std::string, double> none;
    for (const MetricDef& m : kMetrics) none[m.name] = 0.0;
    none["failed_frac"] = ratio(static_cast<double>(tally.failed),
                                static_cast<double>(tally.attempted));
    print_result(tally, none, o.trace);
    return 0;
  }
  // Read before the checks below, which run further batches.
  const double peak_rss_mb = peak_rss_mib();
  const double round_s = median(timed.round_seconds);
  const double kernels = static_cast<double>(timed.kernels);
  std::cout << "timed: " << timed.round_seconds.size() << " rounds of "
            << batch.units() << " units, " << batch.cells() << " cells, "
            << timed.kernels << " kernels; unscaled kernels/s at the median "
               "round "
            << kernels / round_s << ", scaled at each unit's median pass "
            << kernels / timed.scaled_seconds() << "; scaled set-up "
            << setup.seconds() << " s (medians of " << setup.blocks()
            << " blocks over " << setup.parts() << " parts); calibration "
            << cal.samples() << " samples of "
            << cal.fastest() * 1e3 << "-" << cal.slowest() * 1e3
            << " ms per repetition (nominal "
            << Calibration::kNominalSeconds * 1e3 << ")\n";

  if (!o.record_dir.empty()) {
    write_digests(digest_path(o.record_dir, w.name, o.seed), timed.digests);
  } else {
    check_recorded(o, w, timed, tally);
  }

  std::map<std::string, double> values;
  if (!o.trace) {
    values["kernels_per_s"] = kernels / timed.scaled_seconds();
    values["setup_s"] = setup.seconds();
    values["peak_rss_mb"] = peak_rss_mb;
    print_result(tally, values, false);
    return 0;
  }

  SpanRecorder rec;
  const Layers L = traced_replay(batch, timed.digests, rec, kBalanceBound);
  tally.add(L.cell_ms.size(), L.failed_cells);
  double exponent = 0.0;
  if (w.stream) {
    // Growth of the batch's wall time with its size: N/2 against N.
    const Batch half = half_size(batch);
    Tally half_tally;
    const Timed h = timed_loop(half, 0.0, half_tally);
    tally.add(half_tally.attempted, half_tally.failed);
    if (!h.round_seconds.empty() && h.kernels > 0)
      exponent = ratio(std::log(round_s / h.round_seconds.front()),
                       std::log(kernels / static_cast<double>(h.kernels)));
  }
  double cells_ms = 0.0;
  for (const double ms : L.cell_ms) cells_ms += ms;
  const double passes = static_cast<double>(L.passes);
  const double solves =
      static_cast<double>(L.solves_full + L.solves_incremental);
  values["policies.on_event_ms"] = L.on_event_ms;
  values["policies.on_event_us_p50"] = percentile(L.on_event_us, 0.50);
  values["policies.on_event_us_p99"] = percentile(L.on_event_us, 0.99);
  values["policies.passes"] = passes;
  values["policies.decisions"] = static_cast<double>(L.decisions);
  values["policies.decisions_per_pass"] =
      ratio(static_cast<double>(L.decisions), passes);
  values["policies.prepare_ms"] = L.prepare_ms;
  values["stream.self_ms"] = L.stream_self_ms;
  values["stream.events"] = static_cast<double>(L.stream_events);
  values["stream.ready_compactions"] = static_cast<double>(L.compactions);
  values["stream.compactions_per_pass"] =
      ratio(static_cast<double>(L.compactions), passes);
  values["stream.peak_live_apps"] = static_cast<double>(L.peak_live_apps);
  values["stream.backlog_exponent"] = exponent;
  values["sim.engine_self_ms"] = L.engine_self_ms;
  values["sim.metrics_ms"] = L.metrics_ms;
  values["net.tm_solve_ms"] = L.tm_solve_ms;
  values["net.solves_full"] = static_cast<double>(L.solves_full);
  values["net.solves_incremental"] = static_cast<double>(L.solves_incremental);
  values["net.incremental_frac"] =
      ratio(static_cast<double>(L.solves_incremental), solves);
  values["net.flows_resolved_per_solve"] =
      ratio(static_cast<double>(L.flows_resolved), solves);
  values["net.transfers"] = static_cast<double>(L.transfers);
  values["scenario.generate_ms"] = L.scenario_ms;
  values["scenario.dags"] = static_cast<double>(L.dags);
  values["lut.table_ms"] = L.table_ms;
  values["core.cell_setup_ms"] = L.cell_setup_ms;
  values["core.cell_ms_p50"] = percentile(L.cell_ms, 0.50);
  values["core.cell_ms_p99"] = percentile(L.cell_ms, 0.99);
  values["core.unattributed_ms"] = L.unattributed_ms;
  values["core.unbalanced_cells"] = static_cast<double>(L.unbalanced_cells);
  // The untraced round also validates its plans and builds their tables.
  values["obs.trace_overhead_frac"] =
      ratio(cells_ms + L.table_ms, round_s * 1000.0) - 1.0;
  values["failed_frac"] = ratio(static_cast<double>(tally.failed),
                                static_cast<double>(tally.attempted));
  std::cout << "traced: " << L.cell_ms.size() << " cells, "
            << rec.spans().size() << " spans, " << cells_ms << " ms in cells; "
            << seconds_since(process_start) << " s since start\n";
  if (!o.trace_out.empty())
    write_chrome_trace(o.trace_out, rec.spans(), provenance, kTraceSpanBudget);
  print_result(tally, values, true);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
