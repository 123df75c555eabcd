// aptsim — command-line front end for the APT scheduling library.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/experiments.hpp"
#include "core/policy_factory.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/stream_plan.hpp"
#include "dag/generator.hpp"
#include "dag/serialize.hpp"
#include "lut/paper_data.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/scenario.hpp"
#include "sim/analysis.hpp"
#include "sim/gantt.hpp"
#include "sim/trace.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace apt;

/// One command-line flag. An empty metavar marks a boolean flag; a null
/// default marks a flag whose absence means something (see Args::has).
struct Flag {
  const char* name;
  const char* metavar;
  const char* fallback;
  const char* help;
};

/// Flags declared once for all the subcommands that take them.
struct FlagGroup {
  const char* commands;  ///< space-separated subcommand names, or "*"
  std::vector<Flag> flags;
};

// The flag table: every flag's name, default and help, written once. It
// drives the parser, the defaults the handlers read and each subcommand's
// --help (flags listed in table order).
const FlagGroup kFlagTable[] = {
    {"run", {{"policy", "SPEC", "apt:4", "see `aptsim policies`"}}},
    {"gen run",
     {{"graph", "F", nullptr, "load a saved graph instead of generating one"},
      {"family", "NAME", nullptr, "scenario family (see `aptsim families`)"},
      {"kernels", "N", "46", "kernel count"},
      {"seed", "S", "1", "graph seed"},
      {"arrivals", "MEAN_MS", nullptr, "Poisson entry-kernel arrivals"}}},
    {"gen run sweep compare", {{"type", "1|2", "1", "paper DFG type"}}},
    {"gen run compare", {{"rate", "GBPS", "4", "link rate"}}},
    {"compare report", {{"alpha", "A", "4", "APT threshold factor"}}},
    {"run",
     {{"trace", "", nullptr, "print the per-kernel trace"},
      {"gantt", "", nullptr, "print an ASCII Gantt chart"},
      {"analyze", "", nullptr, "print the schedule analysis"},
      {"csv", "F", nullptr, "write the schedule as CSV"}}},
    {"gen",
     {{"out", "F", nullptr, "save the graph (default: print it)"},
      {"dot", "F", nullptr, "write the graph as Graphviz DOT"},
      {"lut-out", "F", nullptr, "save the costing table as CSV"}}},
    {"sweep",
     {{"family", "NAME[,...]", nullptr, "scenario families, else --type"},
      {"graphs", "G", "10", "graphs per family"},
      {"kernels", "N[,...]", "46", "kernel counts per family"},
      {"policies", "SPEC[,...]", nullptr, "policy columns"},
      {"alphas", "A[,...]", "1.5,2,4,8,16", "APT columns (unless --policies)"},
      {"rates", "GBPS[,...]", "4,8", "link rates"},
      {"reps", "R", "1", "replications"},
      {"seed", "S", "0", "base seed"}}},
    {"stream",
     {{"family", "NAME[,...]", "type1", "scenario families"},
      {"rate", "L[,...]", "0.01", "arrival rates (apps/ms)"},
      {"policies", "SPEC[,...]", "apt:4,met,spn,ag", "dynamic policies"},
      {"kernels", "N", "46", "kernels per instance"},
      {"arrival", "KIND", "poisson", "poisson|deterministic|trace"},
      {"trace-file", "F", nullptr, "arrival instants (ms), one a line"},
      {"duration", "MS", "60000", "admission horizon"},
      {"warmup", "MS", nullptr, "unmeasured prefix (default: duration/10)"},
      {"max-apps", "N", "0", "admission cap, 0 = none"},
      {"seed", "S", "0", "base seed"},
      {"link-rate", "GBPS", "4", "link rate"},
      {"noise-sigma", "S", "0", "lognormal service-time noise"},
      {"tail-prob", "P[,...]", "0", "heavy-tail probabilities"},
      {"tail-mult", "M", "20", "heavy-tail multiplier"},
      {"noise-seed", "S", "0", "noise seed"},
      {"hedging", "MODE", "off", "on|off|both"},
      {"hedge-quantile", "Q", "0.95", "hedge threshold quantile"},
      {"hedge-factor", "F", "1.5", "hedge threshold factor"}}},
    {"gen run stream",
     {{"lut", "F.csv", nullptr, "cost against a saved lookup table"}}},
    {"gen run sweep stream",
     {{"ccr", "X", "0.5", "synthetic platform: transfer/compute ratio"},
      {"hetero", "H", "4", "synthetic platform: slowest/fastest ratio"},
      {"lut-seed", "S", "1", "synthetic platform: sample seed"}}},
    {"run sweep stream",
     {{"topology", "KIND[,...]", "ideal",
       "ideal|bus|crossbar|hier[:S]|ring[:N]|mesh:RxC|fattree[:K]"},
      {"bandwidth", "GBPS", "0", "link bandwidth, 0 = the link rate"},
      {"latency", "MS", "0", "per-message link latency"}}},
    {"sweep stream",
     {{"jobs", "N", "1", "worker threads, 0 = all cores; same output"},
      {"csv", "F", nullptr, "write every cell as CSV"},
      {"json", "F", nullptr, "write every cell as JSON"}}},
    {"run stream",
     {{"trace-out", "F.json", nullptr, "write a Perfetto timeline; inert"},
      {"trace-max-events", "N", "1048576", "trace event cap"},
      {"trace-every", "K", "1", "keep every K-th span per category"},
      {"profile", "", nullptr, "print hot-path counters/timers; inert"}}},
    {"lut", {{"csv", "F", nullptr, "save the table as CSV instead"}}},
    {"report", {{"out-dir", "D", "report", "output directory"}}},
    {"*",
     {{"log-level", "LEVEL", "info", "debug|info|warn|error|off"},
      {"help", "", nullptr, "print this help (also -h)"}}},
};

/// The flags `command` takes, in table order (the "*" group's included).
std::vector<const Flag*> flags_of(const std::string& command) {
  std::vector<const Flag*> out;
  for (const FlagGroup& group : kFlagTable) {
    const std::string commands = std::string(" ") + group.commands + " ";
    if (commands == " * " ||
        commands.find(" " + command + " ") != commands.npos)
      for (const Flag& flag : group.flags) out.push_back(&flag);
  }
  return out;
}

/// " (did you mean X?)" for a typo of one of `candidates`, else "".
std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates) {
  const std::size_t i = util::closest_match(word, candidates);
  return i < candidates.size() ? " (did you mean " + candidates[i] + "?)" : "";
}

/// One subcommand's flags, read through the table: getters fall back to
/// the table default, and reading a flag the subcommand does not take is a
/// std::logic_error, which the first test reaching it catches.
class Args {
 public:
  Args(std::string command, std::map<std::string, std::string> given)
      : command_(std::move(command)), given_(std::move(given)) {}

  /// Whether the flag was on the command line (the test for booleans).
  bool has(const std::string& name) const {
    flag(name);
    return given_.count(name) != 0;
  }
  std::string str(const std::string& name) const {
    const Flag& f = flag(name);
    if (const auto it = given_.find(name); it != given_.end())
      return it->second;
    if (f.fallback == nullptr)
      throw std::logic_error("--" + name + " has no default; check has()");
    return f.fallback;
  }
  std::uint64_t u64(const std::string& name) const {
    return parse(name, str(name), util::parse_uint);
  }
  double f64(const std::string& name) const {
    return parse(name, str(name), util::parse_double);
  }
  /// Comma lists: tokens trimmed, empty ones dropped, at least one left.
  std::vector<std::string> list(const std::string& name) const {
    return list_of(name, util::trim);
  }
  std::vector<double> f64_list(const std::string& name) const {
    return list_of(name, util::parse_double);
  }
  std::vector<std::uint64_t> u64_list(const std::string& name) const {
    return list_of(name, util::parse_uint);
  }

 private:
  const Flag& flag(const std::string& name) const {
    for (const Flag* f : flags_of(command_))
      if (f->name == name) return *f;
    throw std::logic_error(command_ + " reads undeclared flag --" + name);
  }
  /// `parse(text)`, naming the flag when the text is malformed.
  template <typename T>
  static T parse(const std::string& name, const std::string& text,
                 T (*fn)(const std::string&)) {
    try {
      return fn(text);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("--" + name + ": " + e.what());
    }
  }
  template <typename T>
  std::vector<T> list_of(const std::string& name,
                         T (*fn)(const std::string&)) const {
    std::vector<T> out;
    for (const std::string& token : util::split(str(name), ','))
      if (!util::trim(token).empty())
        out.push_back(parse(name, util::trim(token), fn));
    if (out.empty())
      throw std::invalid_argument("--" + name + ": no values given");
    return out;
  }

  std::string command_;
  std::map<std::string, std::string> given_;
};

bool is_help(const std::string& token) {
  return token == "--help" || token == "-h";
}

/// Parses argv[2..] against the table. Unknown and repeated flags, a
/// missing value and a value after a boolean flag are errors.
Args parse_flags(const std::string& command, int argc, char** argv) {
  const std::vector<const Flag*> accepted = flags_of(command);
  std::vector<std::string> names;  // "--name" of each accepted flag
  for (const Flag* f : accepted) names.push_back(std::string("--") + f->name);
  std::map<std::string, std::string> given;
  const Flag* flag = nullptr;  // the previous flag
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (!util::starts_with(token, "--"))
      throw std::invalid_argument(
          flag != nullptr && *flag->metavar == '\0'
              ? std::string("--") + flag->name + " takes no value, got '" +
                    token + "'"
              : "expected --option, got '" + token + "'");
    const auto it = std::find(names.begin(), names.end(), token);
    if (it == names.end())
      throw std::invalid_argument("unknown option " + token + " for '" +
                                  command + "'" + did_you_mean(token, names));
    flag = accepted[it - names.begin()];
    if (given.count(flag->name) != 0)
      throw std::invalid_argument(token + " given more than once");
    if (*flag->metavar == '\0')
      given[flag->name];
    else if (i + 1 < argc && !util::starts_with(argv[i + 1], "--"))
      given[flag->name] = argv[++i];
    else
      throw std::invalid_argument(token + " needs a value (" + flag->metavar +
                                  ")");
  }
  return Args(command, std::move(given));
}

/// --type, the paper DFG type: one check for every subcommand taking it.
dag::DfgType dfg_type_from_args(const Args& args) {
  const std::uint64_t type = args.u64("type");
  if (type != 1 && type != 2)
    throw std::invalid_argument("--type must be 1 or 2");
  return type == 1 ? dag::DfgType::Type1 : dag::DfgType::Type2;
}

/// The fabrics of --topology (a list: the topology axis of sweep/stream),
/// each with --bandwidth/--latency. Malformed shapes (mesh:3x) throw.
std::vector<net::TopologySpec> topologies_from_args(const Args& args) {
  std::vector<net::TopologySpec> specs;
  for (const std::string& token : args.list("topology")) {
    net::TopologySpec spec = net::parse_topology_spec(token);
    spec.bandwidth_gbps = args.f64("bandwidth");
    spec.latency_ms = args.f64("latency");
    spec.validate();
    specs.push_back(spec);
  }
  return specs;
}

/// The synthetic platform of --ccr/--hetero/--lut-seed: one parse for all
/// subcommands, so identical flags always mean an identical platform.
lut::SyntheticLutSpec synthetic_spec_from_args(const Args& args,
                                               double link_rate_gbps) {
  lut::SyntheticLutSpec spec;
  spec.ccr = args.f64("ccr");
  spec.heterogeneity = args.f64("hetero");
  spec.seed = args.u64("lut-seed");
  spec.link_rate_gbps = link_rate_gbps;
  return spec;
}

bool wants_synthetic_platform(const Args& args) {
  return args.has("ccr") || args.has("hetero") || args.has("lut-seed");
}

/// The costing table: --lut, the synthetic platform flags, or (default)
/// the paper's measured table. Mixing the two explicit forms is rejected.
lut::LookupTable table_from_args(const Args& args, double link_rate_gbps) {
  if (args.has("lut")) {
    if (wants_synthetic_platform(args))
      throw std::invalid_argument(
          "--lut conflicts with --ccr/--hetero/--lut-seed: pass either a "
          "saved table or the synthetic platform knobs, not both");
    return lut::LookupTable::from_csv_file(args.str("lut"));
  }
  if (wants_synthetic_platform(args))
    return lut::synthetic_lookup_table(
        synthetic_spec_from_args(args, link_rate_gbps));
  return lut::paper_lookup_table();
}

/// Rejects each of `flags` that was given: it means nothing in the mode
/// the other flags select (`why` says which), and dropping it silently
/// would hide a mistake.
void reject_flags(const Args& args, std::initializer_list<const char*> flags,
                  const std::string& why) {
  for (const char* name : flags)
    if (args.has(name))
      throw std::invalid_argument(std::string("--") + name + " " + why);
}

dag::Dag graph_from_args(const Args& args, const dag::KernelPool& pool) {
  if (args.has("graph"))
    reject_flags(args, {"family", "type", "kernels"},
                 "does not apply to a loaded --graph");
  dag::Dag graph = [&] {
    if (args.has("graph")) return dag::load_text_file(args.str("graph"));
    const auto n = static_cast<std::size_t>(args.u64("kernels"));
    const std::uint64_t seed = args.u64("seed");
    if (args.has("family"))
      return scenario::generate(args.str("family"), n, seed, pool);
    return dag::generate(dfg_type_from_args(args), n, seed, pool);
  }();
  if (args.has("arrivals"))
    dag::apply_poisson_arrivals(graph, args.f64("arrivals"), args.u64("seed"));
  return graph;
}

/// --trace-out's event cap and per-category decimation stride (metadata is
/// always kept, so tracks stay named even when spans are dropped).
obs::ChromeTraceWriter::Options trace_options_from_args(const Args& args) {
  obs::ChromeTraceWriter::Options opt;
  opt.max_events = static_cast<std::size_t>(args.u64("trace-max-events"));
  opt.every = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.u64("trace-every")));
  return opt;
}

/// Milliseconds of wall-clock time since `t0`.
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One output row as (column, value) pairs: tables take their header from
/// the first row, so each column is named once, next to its value.
using Record = std::vector<std::pair<std::string, std::string>>;

/// A util::TablePrinter or util::CsvTable of `rows` (at least one).
template <typename Table>
Table tabulate(const std::vector<Record>& rows) {
  std::vector<std::string> header;
  for (const auto& field : rows.at(0)) header.push_back(field.first);
  Table table(header);
  for (const Record& row : rows) {
    std::vector<std::string> values;
    for (const auto& field : row) values.push_back(field.second);
    table.add_row(values);
  }
  return table;
}

/// A JSON string literal.
std::string json_str(const std::string& s) {
  return "\"" + util::json_escape(s) + "\"";
}

/// The exporters' fixed six decimals.
std::string f6(double value) { return util::format_double(value, 6); }

/// `{"key": value, ...}` over values that are already JSON (see json_str()).
std::string json_object(const Record& fields) {
  std::string out;
  for (const auto& [key, value] : fields)
    out += (out.empty() ? "{" : ", ") + json_str(key) + ": " + value;
  return out.empty() ? "{}" : out + "}";
}

/// Prints one `label  text` line per row, the texts aligned.
void print_rows(const Record& rows) {
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  for (const auto& [label, text] : rows)
    std::cout << "  " << label << std::string(width - label.size() + 2, ' ')
              << text << "\n";
}

/// Writes an export file and reports it on stdout.
void write_export(const std::string& path, const std::string& text,
                  const std::string& what) {
  std::ofstream out(path, std::ios::binary);
  if (!(out << text)) throw std::runtime_error("cannot write '" + path + "'");
  std::cout << what << " written to " << path << "\n";
}

/// A profiling snapshot as `{"counters": {...}, "timers": {...}}`.
std::string profile_to_json(const obs::ProfileSnapshot& p) {
  Record counters;
  Record timers;
  for (const auto& c : p.counters)
    counters.emplace_back(c.name, std::to_string(c.count));
  for (const auto& t : p.timers)
    timers.emplace_back(
        t.name, json_object({{"count", std::to_string(t.count)},
                             {"total_ms", util::format_double(t.total_ms, 3)},
                             {"max_ms", util::format_double(t.max_ms, 3)}}));
  return json_object(
      {{"counters", json_object(counters)}, {"timers", json_object(timers)}});
}

/// A profiling snapshot as one stdout table (counters, then timers).
void print_profile(const obs::ProfileSnapshot& p, const std::string& title) {
  std::cout << title << "\n";
  if (p.empty()) {
    std::cout << "  (no samples recorded)\n";
    return;
  }
  util::TablePrinter table({"hot-path metric", "count", "total ms", "max ms"});
  for (const auto& c : p.counters)
    table.add_row({c.name, std::to_string(c.count), "", ""});
  for (const auto& t : p.timers)
    table.add_row({t.name, std::to_string(t.count),
                   util::format_double(t.total_ms, 3),
                   util::format_double(t.max_ms, 3)});
  std::cout << table.to_string();
}

/// Writes a finished trace and reports where it went and what it dropped.
void finish_trace(const obs::ChromeTraceWriter& tracer,
                  const std::string& path) {
  tracer.write_file(path);
  std::cout << "trace written to " << path << " (" << tracer.event_count()
            << " events";
  if (tracer.dropped() > 0) std::cout << ", " << tracer.dropped() << " dropped";
  std::cout << ")\n";
}

int cmd_gen(const Args& args) {
  // The generators sample their kernels from the costing table's pool;
  // --lut-out saves it for a later `run --lut`.
  const lut::LookupTable table = table_from_args(args, args.f64("rate"));
  const dag::Dag graph =
      graph_from_args(args, dag::KernelPool::from_lookup_table(table));
  // Saved only once generation succeeded, so a failed `gen` leaves no
  // platform file behind; logged, as stdout may carry the graph itself.
  if (args.has("lut-out")) {
    table.save_csv_file(args.str("lut-out"));
    APT_LOG_INFO << "lookup table written to " << args.str("lut-out");
  }
  const std::string label =
      args.has("family")
          ? std::string(scenario::family(args.str("family")).name())
          : "type" + args.str("type");
  if (args.has("dot"))
    std::ofstream(args.str("dot")) << dag::to_dot(graph, label);
  if (args.has("out")) {
    dag::save_text_file(graph, args.str("out"));
    std::cout << label << ": " << graph.node_count() << " kernels, "
              << graph.edge_count() << " edges, depth " << graph.depth()
              << " -> " << args.str("out") << "\n";
  } else {
    // Pipe-friendly: bare `gen` emits only the serialised graph.
    std::cout << dag::to_text(graph);
  }
  return 0;
}

int cmd_families(const Args& /*args*/) {
  util::TablePrinter table({"family", "min kernels", "description"});
  for (const scenario::ScenarioFamily* family : scenario::all_families()) {
    table.add_row({family->name(), std::to_string(family->min_kernels()),
                   family->description()});
  }
  std::cout << table.to_string();
  return 0;
}

int cmd_run(const Args& args) {
  const double rate = args.f64("rate");
  // The costing table also feeds the generators' kernel pool.
  const lut::LookupTable table = table_from_args(args, rate);
  const dag::Dag graph =
      graph_from_args(args, dag::KernelPool::from_lookup_table(table));
  sim::SystemConfig config = sim::SystemConfig::paper_default(rate);
  const std::vector<net::TopologySpec> topologies = topologies_from_args(args);
  if (topologies.size() != 1)
    throw std::invalid_argument("run: --topology takes one fabric");
  config.topology = topologies.front();
  const sim::System system(config);
  const auto policy = core::make_policy(args.str("policy"));
  const sim::LutCostModel cost(table, system);

  // Observability taps (src/obs): inert, so a traced run reproduces an
  // untraced one bit for bit.
  sim::EngineOptions engine_options;
  obs::Profile profile;
  std::optional<obs::ChromeTraceWriter> tracer;
  if (args.has("trace-out")) {
    tracer.emplace(system, trace_options_from_args(args));
    engine_options.sink = &*tracer;
  }
  if (args.has("profile")) engine_options.profile = &profile;

  const auto outcome =
      core::run_policy(*policy, graph, system, cost, engine_options);

  const auto& m = outcome.metrics;
  std::cout << "policy:    " << outcome.policy_name << "\n";
  std::cout << "topology:  " << system.topology().spec().label() << "\n";
  std::cout << "kernels:   " << graph.node_count() << "\n";
  std::cout << "makespan:  " << util::format_double(m.makespan, 3) << " ms\n";
  std::cout << "lambda:    total " << util::format_double(m.lambda.total_ms, 3)
            << " ms, avg " << util::format_double(m.lambda.avg_ms, 3)
            << " ms, stddev " << util::format_double(m.lambda.stddev_ms, 3)
            << " ms over " << m.lambda.occurrences << " occurrences\n";
  for (const auto& proc : m.per_proc) {
    std::cout << "  " << proc.name << ": compute "
              << util::format_double(proc.compute_ms, 3) << " ms, transfer "
              << util::format_double(proc.transfer_ms, 3) << " ms, idle "
              << util::format_double(proc.idle_ms, 3) << " ms ("
              << proc.kernel_count << " kernels)\n";
  }
  if (m.alternative_count > 0) {
    std::cout << "alternative assignments: " << m.alternative_count << "\n";
    for (const auto& [kernel, count] : m.alternative_by_kernel)
      std::cout << "  " << count << "-" << kernel << "\n";
  }
  std::cout << "energy:    " << util::format_double(m.total_energy_j, 1)
            << " J\n";
  if (!m.per_link.empty()) {
    std::cout << "comm:      busy " << util::format_double(m.comm_busy_ms, 3)
              << " ms, overlap with compute "
              << util::format_double(m.comm_compute_overlap_ms, 3) << " ms\n";
    for (const auto& link : m.per_link) {
      std::cout << "  link " << link.name << ": busy "
                << util::format_double(link.busy_ms, 3) << " ms ("
                << util::format_double(link.utilization * 100.0, 1) << "%), "
                << util::format_double(link.bytes / 1e6, 2) << " MB over "
                << link.transfer_count << " transfers";
      if (link.avg_hops > 1.0)
        std::cout << " (avg route " << util::format_double(link.avg_hops, 2)
                  << " hops)";
      std::cout << "\n";
    }
  }
  if (args.has("trace"))
    std::cout << "\n"
              << sim::format_trace(
                     system, sim::build_trace(graph, system, outcome.result));
  if (args.has("gantt"))
    std::cout << "\n" << sim::ascii_gantt(graph, system, outcome.result);
  if (args.has("analyze"))
    std::cout << "\n"
              << sim::format_analysis(sim::analyze_schedule(graph, system, cost,
                                                            outcome.result));
  if (tracer) finish_trace(*tracer, args.str("trace-out"));
  if (args.has("profile"))
    print_profile(profile.snapshot(), "profile (hot-path counters/timers):");
  if (args.has("csv")) {
    util::CsvTable csv({"node", "kernel", "data_size", "proc", "ready_ms",
                        "assign_ms", "exec_start_ms", "finish_ms",
                        "alternative"});
    for (const auto& k : outcome.result.schedule) {
      csv.add_row({std::to_string(k.node), graph.node(k.node).kernel,
                   std::to_string(graph.node(k.node).data_size),
                   system.processor(k.proc).name, f6(k.ready_time),
                   f6(k.assign_time), f6(k.exec_start), f6(k.finish_time),
                   k.alternative ? "1" : "0"});
    }
    write_export(args.str("csv"), util::to_csv_string(csv), "schedule");
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const dag::DfgType dfg = dfg_type_from_args(args);
  const double alpha = args.f64("alpha");
  const double rate = args.f64("rate");

  const core::Grid grid =
      core::run_paper_grid(dfg, core::paper_policy_specs(alpha), rate);

  std::vector<std::string> header = {"Graph"};
  for (const auto& name : grid.policy_names) header.push_back(name);
  util::TablePrinter table(header);
  for (std::size_t g = 0; g < grid.experiment_count(); ++g) {
    std::vector<std::string> row = {std::to_string(g + 1)};
    for (std::size_t p = 0; p < grid.policy_count(); ++p)
      row.push_back(util::format_double(grid.cells[g][p].makespan_ms, 0));
    table.add_row(row);
  }
  table.add_separator();
  std::vector<std::string> avg = {"avg"};
  for (std::size_t p = 0; p < grid.policy_count(); ++p)
    avg.push_back(util::format_double(grid.avg_makespan_ms(p), 0));
  table.add_row(avg);
  std::cout << "Total computation time (ms), " << dag::to_string(dfg)
            << ", rate " << rate << " GB/s\n"
            << table.to_string();
  std::cout << "APT improvement vs best other dynamic policy: "
            << util::format_double(core::improvement_exec_pct(grid, 0), 2)
            << "% exec, "
            << util::format_double(core::improvement_lambda_pct(grid, 0), 2)
            << "% lambda\n";
  return 0;
}

int cmd_sweep(const Args& args) {
  // Workload axis: the paper's ten graphs of --type, or a generated
  // scenario cube of --family (where Type1 merely labels the Grid slices).
  const bool family_mode = args.has("family");
  if (!family_mode)
    reject_flags(args, {"graphs", "kernels", "ccr", "hetero", "lut-seed"},
                 "applies only with --family (the --type graphs are fixed)");
  const dag::DfgType dfg =
      family_mode ? dag::DfgType::Type1 : dfg_type_from_args(args);

  // Columns: --policies plus one APT column per alpha (by default the
  // thesis's alpha grid). A spec typo dies here, before any graph exists.
  std::vector<std::string> specs;
  if (args.has("policies"))
    specs = core::parse_policy_list(args.str("policies"));
  if (args.has("alphas") || !args.has("policies"))
    for (const double alpha : args.f64_list("alphas"))
      specs.push_back("apt:" + util::format_double(alpha, 3));
  const std::vector<double> rates = args.f64_list("rates");
  const std::uint64_t seed = args.u64("seed");
  const std::vector<net::TopologySpec> topologies = topologies_from_args(args);
  std::string workload_name;
  // Each graph's family/size, so exported cells are attributable without
  // knowing the plan's expansion order.
  std::vector<std::string> graph_labels;
  core::ExperimentPlan plan;
  if (family_mode) {
    core::ScenarioSweepSpec spec;
    spec.topology = topologies.front();
    spec.topologies = topologies;
    spec.families = args.list("family");
    spec.graphs_per_family = static_cast<std::size_t>(args.u64("graphs"));
    const std::vector<std::uint64_t> kernels = args.u64_list("kernels");
    spec.kernel_counts.assign(kernels.begin(), kernels.end());
    spec.graph_seed = seed;
    if (wants_synthetic_platform(args))
      spec.synthetic = synthetic_spec_from_args(args, rates.front());
    plan = core::make_scenario_plan(spec, specs, rates);
    workload_name = "scenario[" + util::join(spec.families, "+") + "]";
    graph_labels = core::scenario_graph_labels(spec);
  } else {
    plan = core::ExperimentPlan::paper(dfg, specs, rates);
    plan.base_system.topology = topologies.front();
    plan.topologies = topologies;
    workload_name = dag::to_string(dfg);
    graph_labels.assign(plan.graphs.size(), workload_name);
  }
  plan.replications = static_cast<std::size_t>(args.u64("reps"));
  plan.base_seed = seed;

  const core::BatchRunner runner(static_cast<std::size_t>(args.u64("jobs")));
  const auto t0 = std::chrono::steady_clock::now();
  const core::BatchResult result = runner.run(plan);
  const double elapsed_ms = ms_since(t0);

  // The summary averages each (topology, policy, rate) over all --reps
  // replications and sums their wins.
  const double reps = static_cast<double>(result.replications);
  std::vector<Record> summary;
  for (std::size_t t = 0; t < result.topology_count; ++t) {
    for (std::size_t p = 0; p < result.policy_count; ++p) {
      for (std::size_t r = 0; r < result.rate_count; ++r) {
        double makespan = 0.0;
        double lambda = 0.0;
        std::size_t wins = 0;
        for (std::size_t rep = 0; rep < result.replications; ++rep) {
          const core::Grid grid = result.grid(dfg, r, rep, t);
          makespan += grid.avg_makespan_ms(p);
          lambda += grid.avg_lambda_ms(p);
          wins += grid.wins(p);
        }
        summary.push_back(
            {{"topology", result.topology_labels[t]},
             {"policy", result.policy_names[p]},
             {"rate GB/s", util::format_double(result.rates_gbps[r], 0)},
             {"avg makespan ms", util::format_double(makespan / reps, 1)},
             {"avg lambda ms", util::format_double(lambda / reps, 1)},
             {"wins", std::to_string(wins)}});
      }
    }
  }
  std::cout << "sweep, " << workload_name << ", topology "
            << util::join(result.topology_labels, "+") << ", "
            << result.graph_count << " graphs x " << result.policy_count
            << " policies x " << result.rate_count << " rates x "
            << result.topology_count << " topologies x " << result.replications
            << " reps = " << result.cells.size() << " runs in "
            << util::format_double(elapsed_ms, 1) << " ms (" << runner.jobs()
            << " jobs)\n"
            << tabulate<util::TablePrinter>(summary).to_string();

  // One CSV row and one JSON object per cell, topology outermost.
  std::vector<Record> rows;
  std::vector<std::string> cells;
  for (std::size_t t = 0; t < result.topology_count; ++t)
    for (std::size_t rep = 0; rep < result.replications; ++rep)
      for (std::size_t r = 0; r < result.rate_count; ++r)
        for (std::size_t g = 0; g < result.graph_count; ++g)
          for (std::size_t p = 0; p < result.policy_count; ++p) {
            const core::Cell& cell = result.at(t, rep, r, g, p);
            const std::string rate =
                util::format_double(result.rates_gbps[r], 3);
            rows.push_back(
                {{"replication", std::to_string(rep)},
                 {"rate_gbps", rate},
                 {"topology", result.topology_labels[t]},
                 {"graph", std::to_string(g + 1)},
                 {"workload", graph_labels.at(g)},
                 {"policy", result.policy_names[p]},
                 {"spec", result.policy_specs[p]},
                 {"makespan_ms", f6(cell.makespan_ms)},
                 {"lambda_total_ms", f6(cell.lambda_total_ms)},
                 {"lambda_avg_ms", f6(cell.lambda_avg_ms)},
                 {"lambda_stddev_ms", f6(cell.lambda_stddev_ms)},
                 {"alternatives", std::to_string(cell.alternative_count)}});
            cells.push_back(
                "    " +
                json_object({{"topology", json_str(result.topology_labels[t])},
                             {"replication", std::to_string(rep)},
                             {"rate_gbps", rate},
                             {"graph", std::to_string(g + 1)},
                             {"workload", json_str(graph_labels.at(g))},
                             {"policy", json_str(result.policy_names[p])},
                             {"makespan_ms", f6(cell.makespan_ms)},
                             {"lambda_total_ms", f6(cell.lambda_total_ms)},
                             {"alternatives",
                              std::to_string(cell.alternative_count)}}));
          }
  if (args.has("csv"))
    write_export(args.str("csv"),
                 util::to_csv_string(tabulate<util::CsvTable>(rows)), "cells");
  if (args.has("json")) {
    std::vector<std::string> topologies, policies, rates;
    for (const std::string& label : result.topology_labels)
      topologies.push_back(json_str(label));
    for (std::size_t p = 0; p < result.policy_count; ++p)
      policies.push_back(
          json_object({{"name", json_str(result.policy_names[p])},
                       {"spec", json_str(result.policy_specs[p])}}));
    for (const double rate : result.rates_gbps)
      rates.push_back(util::format_double(rate, 3));
    write_export(args.str("json"),
                 "{\n  \"workload\": " + json_str(workload_name) +
                     ",\n  \"topologies\": [" + util::join(topologies, ", ") +
                     "],\n  \"policies\": [" + util::join(policies, ", ") +
                     "],\n  \"rates_gbps\": [" + util::join(rates, ", ") +
                     "],\n  \"cells\": [\n" + util::join(cells, ",\n") +
                     "\n  ]\n}\n",
                 "cells");
  }
  return 0;
}

/// Reads an arrival-trace file: one absolute arrival instant (ms) per
/// line; blank lines and '#' comments are skipped. Validation (ordering,
/// sign) is the ArrivalSpec's job.
std::vector<sim::TimeMs> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("stream: cannot open trace file '" + path + "'");
  std::vector<sim::TimeMs> out;
  for (std::string line; std::getline(in, line);) {
    const std::string token = util::trim(line);
    if (!token.empty() && token[0] != '#')
      out.push_back(util::parse_double(token));
  }
  if (out.empty())
    throw std::runtime_error("stream: trace file '" + path +
                             "' holds no arrival instants");
  return out;
}

/// One (topology × tail probability × hedging mode) slice of the stream
/// ablation: the whole grid, rerun under those settings.
struct StreamAblationRun {
  std::string topology_label;
  double tail_prob = 0.0;
  bool hedging = false;
  core::StreamBatchResult result;
};

/// The comm_aware ablation column of a (registry-validated) policy spec.
const char* comm_aware_label(const std::string& spec) {
  const core::PolicyInfo* info = core::find_policy_info(spec);
  return info && info->comm_aware ? "true" : "false";
}

int cmd_stream(const Args& args) {
  core::StreamPlan plan;
  plan.families = args.list("family");
  plan.rates_per_ms = args.f64_list("rate");
  // Registry-validated: a typo fails here, not mid-run in a worker.
  plan.policy_specs = core::parse_policy_list(args.str("policies"));
  plan.kernels = static_cast<std::size_t>(args.u64("kernels"));
  plan.arrival_kind = stream::parse_arrival_kind(args.str("arrival"));
  if (plan.arrival_kind == stream::ArrivalKind::Trace) {
    if (!args.has("trace-file"))
      throw std::runtime_error(
          "stream: --arrival trace needs --trace-file FILE");
    plan.trace_arrivals = read_trace_file(args.str("trace-file"));
  }
  plan.max_apps = static_cast<std::size_t>(args.u64("max-apps"));
  plan.horizon_ms = args.f64("duration");
  // By default a tenth of the horizon: the empty-system ramp is unmeasured.
  plan.warmup_ms =
      args.has("warmup") ? args.f64("warmup") : plan.horizon_ms * 0.1;
  plan.base_seed = args.u64("seed");
  const double link_rate = args.f64("link-rate");
  plan.base_system = sim::SystemConfig::paper_default(link_rate);
  // Each --topology fabric reruns the whole grid; workload seeds depend
  // only on the base seed, so every fabric sees the same arrivals.
  const std::vector<net::TopologySpec> topologies = topologies_from_args(args);
  plan.base_system.topology = topologies.front();
  plan.table = table_from_args(args, link_rate);
  std::vector<std::string> topology_labels;
  for (const net::TopologySpec& t : topologies)
    topology_labels.push_back(t.label());
  const std::string topology_label = util::join(topology_labels, "+");

  // Noise and hedging ablation axes; off by default.
  plan.noise.sigma = args.f64("noise-sigma");
  plan.noise.heavy_tail_multiplier = args.f64("tail-mult");
  plan.noise.seed = args.u64("noise-seed");
  const std::vector<double> tail_probs = args.f64_list("tail-prob");
  const std::string hedging = args.str("hedging");
  if (hedging != "off" && hedging != "on" && hedging != "both")
    throw std::runtime_error("stream: --hedging must be on, off, or both");
  const std::vector<bool> hedging_modes =
      hedging == "both" ? std::vector<bool>{false, true}
                        : std::vector<bool>{hedging == "on"};
  plan.hedging.quantile = args.f64("hedge-quantile");
  plan.hedging.threshold_factor = args.f64("hedge-factor");

  // --profile attaches a profile to every cell; --trace-out captures cell
  // 0 of the first slice only, so the sink never sees interleaved cells.
  plan.profile = args.has("profile");
  const sim::System trace_system(plan.base_system);
  std::optional<obs::ChromeTraceWriter> tracer;
  if (args.has("trace-out")) {
    tracer.emplace(trace_system, trace_options_from_args(args));
    plan.trace_sink = &*tracer;
    plan.trace_cell = 0;
  }

  const core::BatchRunner runner(static_cast<std::size_t>(args.u64("jobs")));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<StreamAblationRun> runs;
  for (const net::TopologySpec& topo : topologies) {
    plan.base_system.topology = topo;
    for (const double tail_prob : tail_probs) {
      for (const bool hedging : hedging_modes) {
        plan.noise.heavy_tail_prob = tail_prob;
        plan.hedging.enabled = hedging;
        runs.push_back(StreamAblationRun{topo.label(), tail_prob, hedging,
                                         core::run_stream_plan(plan, runner)});
        plan.trace_sink = nullptr;  // only the first slice is traced
      }
    }
  }
  const double elapsed_ms = ms_since(t0);

  const core::StreamBatchResult& first = runs.front().result;
  std::cout << "stream, " << first.families.size() << " families x "
            << first.rates_per_ms.size() << " rates x "
            << first.policy_names.size() << " policies x " << runs.size()
            << " topology/noise/hedging slices = "
            << first.cells.size() * runs.size() << " cells in "
            << util::format_double(elapsed_ms, 1) << " ms (" << runner.jobs()
            << " jobs), arrivals " << stream::to_string(plan.arrival_kind)
            << ", topology " << topology_label << ", horizon "
            << util::format_double(plan.horizon_ms, 0) << " ms, warmup "
            << util::format_double(plan.warmup_ms, 0) << " ms, noise sigma "
            << util::format_double(plan.noise.sigma, 3) << "\n";
  std::vector<Record> rows;
  std::vector<Record> csv_rows;
  std::vector<std::string> json_cells;
  // --profile snapshots, summed over all cells for the console (the JSON
  // keeps them per cell).
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::ProfileSnapshot::TimerEntry> timers;
  for (const StreamAblationRun& run : runs) {
    for (const core::StreamCellResult& cell : run.result.cells) {
      const sim::StreamMetrics& m = cell.metrics;
      const std::size_t lost = m.hedges_launched - m.hedges_replica_won;
      rows.push_back(
          {{"family", cell.family},
           {"rate/ms", f6(cell.rate_per_ms)},
           {"topology", run.topology_label},
           {"policy", cell.policy_name},
           {"tail", util::format_double(run.tail_prob, 3)},
           {"hedge", run.hedging ? "on" : "off"},
           {"apps", std::to_string(m.apps_measured)},
           {"thrpt/s", util::format_double(m.throughput_apps_per_s, 2)},
           {"flow avg ms", util::format_double(m.flow_ms.avg, 1)},
           {"flow p95 ms", util::format_double(m.flow_ms.p95, 1)},
           {"flow p99 ms", util::format_double(m.flow_ms.p99, 1)},
           {"slowdown", util::format_double(m.slowdown.avg, 2)},
           {"util %", util::format_double(m.avg_utilization * 100.0, 1)},
           {"hedges w/l", std::to_string(m.hedges_replica_won) + "/" +
                              std::to_string(lost)}});
      for (const auto& c : m.profile.counters) counters[c.name] += c.count;
      for (const auto& t : m.profile.timers) {
        obs::ProfileSnapshot::TimerEntry& total = timers[t.name];
        total.name = t.name;
        total.count += t.count;
        total.total_ms += t.total_ms;
        total.max_ms = std::max(total.max_ms, t.max_ms);
      }
      const Record row = {
          {"family", cell.family},
          {"rate_per_ms", f6(cell.rate_per_ms)},
          {"topology", run.topology_label},
          {"policy", cell.policy_name},
          {"spec", cell.policy_spec},
          {"comm_aware", comm_aware_label(cell.policy_spec)},
          {"apps_arrived", std::to_string(m.apps_arrived)},
          {"apps_completed", std::to_string(m.apps_completed)},
          {"apps_measured", std::to_string(m.apps_measured)},
          {"throughput_apps_per_s", f6(m.throughput_apps_per_s)},
          {"flow_avg_ms", f6(m.flow_ms.avg)},
          {"flow_p50_ms", f6(m.flow_ms.p50)},
          {"flow_p95_ms", f6(m.flow_ms.p95)},
          {"flow_p99_ms", f6(m.flow_ms.p99)},
          {"flow_max_ms", f6(m.flow_ms.max)},
          {"slowdown_avg", f6(m.slowdown.avg)},
          {"slowdown_p50", f6(m.slowdown.p50)},
          {"slowdown_p95", f6(m.slowdown.p95)},
          {"slowdown_p99", f6(m.slowdown.p99)},
          {"slowdown_max", f6(m.slowdown.max)},
          {"avg_utilization", f6(m.avg_utilization)},
          {"queue_depth_avg", f6(m.queue_depth_avg)},
          {"queue_depth_max", std::to_string(m.queue_depth_max)},
          {"live_apps_avg", f6(m.live_apps_avg)},
          {"live_apps_max", std::to_string(m.live_apps_max)},
          {"warmup_ms", util::format_double(m.warmup_ms, 3)},
          {"end_ms", util::format_double(m.end_ms, 3)},
          {"noise_sigma", f6(plan.noise.sigma)},
          {"tail_prob", f6(run.tail_prob)},
          {"tail_mult", f6(plan.noise.heavy_tail_multiplier)},
          {"hedging", run.hedging ? "on" : "off"},
          {"hedges_launched", std::to_string(m.hedges_launched)},
          {"hedges_replica_won", std::to_string(m.hedges_replica_won)},
          {"hedge_wasted_ms", f6(m.hedge_wasted_ms)}};
      if (args.has("csv")) csv_rows.push_back(row);
      if (args.has("json")) {
        const net::SolveStats& tm = m.tm_solve_stats;
        Record fields = {{"family", json_str(cell.family)},
                         {"rate_per_ms", f6(cell.rate_per_ms)},
                         {"topology", json_str(run.topology_label)},
                         {"policy", json_str(cell.policy_name)},
                         {"spec", json_str(cell.policy_spec)},
                         {"comm_aware", comm_aware_label(cell.policy_spec)},
                         {"tail_prob", f6(run.tail_prob)},
                         {"hedging", run.hedging ? "true" : "false"}};
        // The metrics the JSON keeps: these CSV columns, in their order.
        for (const auto& field : row)
          for (const char* key :
               {"apps_measured", "throughput_apps_per_s", "flow_avg_ms",
                "flow_p95_ms", "flow_p99_ms", "slowdown_avg", "slowdown_p99",
                "avg_utilization", "queue_depth_avg", "queue_depth_max",
                "hedges_launched", "hedges_replica_won", "hedge_wasted_ms"})
            if (field.first == key) fields.push_back(field);
        fields.emplace_back(
            "tm_solver",
            json_object({{"full", std::to_string(tm.full_solves)},
                         {"incremental", std::to_string(tm.incremental_solves)},
                         {"flows_resolved", std::to_string(tm.flows_resolved)},
                         {"flows_active", std::to_string(tm.flows_active)}}));
        if (!m.profile.empty())
          fields.emplace_back("profile", profile_to_json(m.profile));
        std::vector<std::string> samples;
        for (const auto& [at, depth] : m.queue_depth_samples)
          samples.push_back("[" + util::format_double(at, 3) + ", " +
                            std::to_string(depth) + "]");
        fields.emplace_back("queue_depth_samples",
                            "[" + util::join(samples, ", ") + "]");
        json_cells.push_back("    " + json_object(fields));
      }
    }
  }
  std::cout << tabulate<util::TablePrinter>(rows).to_string();

  if (tracer) {
    std::cout << "traced cell: family " << first.families.front() << ", rate "
              << util::format_double(first.rates_per_ms.front(), 6)
              << "/ms, policy " << first.policy_names.front() << ", topology "
              << runs.front().topology_label << "\n";
    finish_trace(*tracer, args.str("trace-out"));
  }
  if (plan.profile) {
    obs::ProfileSnapshot total;
    for (const auto& [name, count] : counters)
      total.counters.push_back({name, count});
    for (const auto& entry : timers) total.timers.push_back(entry.second);
    print_profile(total, "profile (summed over all cells/slices):");
  }
  if (args.has("csv"))
    write_export(args.str("csv"),
                 util::to_csv_string(tabulate<util::CsvTable>(csv_rows)),
                 "cells");
  if (args.has("json")) {
    write_export(args.str("json"),
                 "{\n  \"workload\": \"stream\",\n  \"arrivals\": \"" +
                     std::string(stream::to_string(plan.arrival_kind)) +
                     "\",\n  \"topology\": " + json_str(topology_label) +
                     ",\n  \"noise_sigma\": " + f6(plan.noise.sigma) +
                     ",\n  \"cells\": [\n" + util::join(json_cells, ",\n") +
                     "\n  ]\n}\n",
                 "cells");
  }
  return 0;
}

int cmd_lut(const Args& args) {
  const lut::LookupTable table = lut::paper_lookup_table();
  if (args.has("csv")) {
    table.save_csv_file(args.str("csv"));
    std::cout << "lookup table written to " << args.str("csv") << "\n";
    return 0;
  }
  util::TablePrinter printer(
      {"Kernel", "Data Size", "CPU (ms)", "GPU (ms)", "FPGA (ms)"});
  for (const auto& e : table.entries()) {
    printer.add_row({e.kernel, std::to_string(e.data_size),
                     util::format_double(e.time(lut::ProcType::CPU), 3),
                     util::format_double(e.time(lut::ProcType::GPU), 3),
                     util::format_double(e.time(lut::ProcType::FPGA), 3)});
  }
  std::cout << printer.to_string();
  return 0;
}

int cmd_report(const Args& args) {
  const std::string dir = args.str("out-dir");
  const double alpha = args.f64("alpha");
  std::filesystem::create_directories(dir);
  std::cout << "Regenerating the reproduction bundle (alpha = " << alpha
            << ") into " << dir << "/ ...\n";
  for (const auto& name : core::write_report_bundle(dir, alpha))
    std::cout << "  " << name << "\n";
  return 0;
}

int cmd_policies(const Args& /*args*/) {
  // One row per registry entry: usage, dynamic/static, summary, aliases.
  Record rows;
  for (const auto& info : core::policy_registry())
    rows.emplace_back(
        info.usage,
        (core::make_policy(info.head)->is_dynamic() ? "dynamic  "
                                                     : "static   ") +
            info.summary +
            (info.aliases.empty()
                 ? ""
                 : " [aka " + util::join(info.aliases, ", ") + "]"));
  std::cout << "known policies (SPEC forms for --policy / --policies):\n";
  print_rows(rows);
  return 0;
}

// Build info injected by CMake; the fallbacks serve non-CMake builds.
#ifndef APTSIM_GIT_DESCRIBE
#define APTSIM_GIT_DESCRIBE "unknown"
#endif
#ifndef APTSIM_BUILD_TYPE
#define APTSIM_BUILD_TYPE "unknown"
#endif

int cmd_version(const Args& /*args*/) {
  std::cout << "aptsim " << APTSIM_GIT_DESCRIBE << " (" << APTSIM_BUILD_TYPE
            << " build)\n";
  return 0;
}

struct Command {
  const char* name;
  const char* alias;  ///< a second spelling, or nullptr
  const char* summary;
  int (*handler)(const Args&);
};

const Command kCommands[] = {
    {"gen", "generate", "generate one DAG and print or save it", cmd_gen},
    {"families", nullptr, "list the scenario families", cmd_families},
    {"run", nullptr, "schedule one DAG and report its metrics", cmd_run},
    {"compare", nullptr, "the paper's policy comparison", cmd_compare},
    {"sweep", nullptr, "a policy x rate x graph cube, in parallel", cmd_sweep},
    {"stream", nullptr, "open-system arrivals of DAG instances", cmd_stream},
    {"lut", nullptr, "print the paper's lookup table", cmd_lut},
    {"report", nullptr, "regenerate the reproduction bundle", cmd_report},
    {"policies", nullptr, "list the policy specs", cmd_policies},
    {"version", "--version", "print the build version", cmd_version},
};

/// `aptsim --help` lists the subcommands and `aptsim <cmd> --help` that
/// subcommand's flags, both generated from the tables.
void print_help(const Command* command) {
  Record rows;
  if (command != nullptr) {
    std::cout << "usage: aptsim " << command->name << " [--flag VALUE ...]\n"
              << command->summary << "\n\nflags:\n";
  } else {
    std::cout << "aptsim — heterogeneous-scheduling simulator (APT "
                 "reproduction)\n\nusage: aptsim COMMAND [--flag VALUE ...]\n"
                 "\ncommands:\n";
    for (const Command& c : kCommands)
      rows.emplace_back(c.name + (c.alias ? std::string(", ") + c.alias : ""),
                        c.summary);
    print_rows(rows);
    std::cout << "\n`aptsim COMMAND --help` lists its flags and defaults."
                 "\n\nglobal flags:\n";
    rows.clear();
  }
  for (const Flag* flag : flags_of(command ? command->name : "*")) {
    rows.emplace_back(std::string("--") + flag->name +
                          (*flag->metavar ? " " : "") + flag->metavar,
                      flag->help);
    if (flag->fallback)
      rows.back().second += std::string(" (default ") + flag->fallback + ")";
  }
  print_rows(rows);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string name = argc >= 2 ? argv[1] : "";
    const Command* command = nullptr;
    std::vector<std::string> names;
    for (const Command& c : kCommands) {
      if (name == c.name || (c.alias && name == c.alias)) command = &c;
      names.emplace_back(c.name);
    }
    if (std::any_of(argv + 1, argv + argc, is_help) || name.empty()) {
      print_help(command);
      return 0;
    }
    if (command == nullptr)
      throw std::invalid_argument("unknown command '" + name + "'" +
                                  did_you_mean(name, names) +
                                  "; see aptsim --help");
    const Args args = parse_flags(command->name, argc, argv);
    // The CLI defaults to info (the library default is warn) so one-shot
    // notices stay visible; --log-level off silences them for scripts.
    util::Logger::instance().set_level(
        util::parse_log_level(args.str("log-level")));
    return command->handler(args);
  } catch (const std::exception& e) {
    std::cerr << "aptsim: error: " << e.what() << "\n";
    return 1;
  }
}
