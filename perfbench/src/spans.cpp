#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

struct NameInfo {
  const char* label;
  const char* layer;
};

constexpr NameInfo kNames[] = {
    {"cell", "core"},
    {"cell_setup", "core"},
    {"sim::Engine::run", "sim"},
    {"stream::StreamEngine::run", "stream"},
    {"Policy::prepare", "policies"},
    {"Policy::on_event", "policies"},
    {"stream::DagSource", "scenario"},
    {"sim::compute_metrics", "sim"},
    {"core::make_scenario_plan", "scenario"},
    {"lut tables", "lut"},
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<std::size_t>(SpanName::kCount));

}  // namespace

const char* span_label(SpanName name) noexcept {
  return kNames[static_cast<std::size_t>(name)].label;
}

const char* span_layer(SpanName name) noexcept {
  return kNames[static_cast<std::size_t>(name)].layer;
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::open(SpanName name, std::uint32_t cell) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.cell = cell;
  open_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(span);
  spans_.back().start_us = now_us();
}

void SpanRecorder::close() {
  if (open_.empty()) throw std::logic_error("SpanRecorder: no open span");
  spans_[static_cast<std::size_t>(open_.back())].end_us = now_us();
  open_.pop_back();
}

double tm_solve_ms(const apt::obs::Profile& profile) noexcept {
  return profile.timer_total_ms(apt::obs::Timer::kTmSolveFull) +
         profile.timer_total_ms(apt::obs::Timer::kTmSolveIncremental);
}

void TimedPolicy::prepare(const apt::dag::Dag& dag,
                          const apt::sim::System& system,
                          const apt::sim::CostModel& cost_model) {
  const Scoped span(rec_, SpanName::kPrepare, cell_);
  inner_.prepare(dag, system, cost_model);
}

void TimedPolicy::on_event(apt::sim::SchedulerContext& ctx) {
  const double tm_before = tm_solve_ms(profile_);
  {
    const Scoped span(rec_, SpanName::kOnEvent, cell_);
    inner_.on_event(ctx);
  }
  tm_in_on_event_ms_ += tm_solve_ms(profile_) - tm_before;
}

void write_chrome_trace(const std::string& path, const SpanList& spans,
                        const std::string& provenance_json,
                        std::size_t max_spans) {
  // Child spans of cells are kept for a prefix of cells: the first cell
  // whose children would push the total past max_spans ends the prefix.
  std::size_t kept = 0;
  std::vector<std::size_t> children;  // per cell
  for (const Span& s : spans) {
    if (s.cell == kNoCell || s.name == SpanName::kCell) {
      ++kept;
      continue;
    }
    if (s.cell >= children.size()) children.resize(s.cell + 1, 0);
    ++children[s.cell];
  }
  std::size_t detail_cells = 0;
  while (detail_cells < children.size() &&
         kept + children[detail_cells] <= max_spans)
    kept += children[detail_cells++];

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.precision(3);
  out << std::fixed;
  out << "{\"displayTimeUnit\": \"ms\",\n\"metadata\": " << provenance_json
      << ",\n\"traceEvents\": [\n"
      << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"perfbench host time\"}}";
  for (const Span& s : spans) {
    const bool detail = s.cell == kNoCell || s.name == SpanName::kCell ||
                        s.cell < detail_cells;
    if (!detail) continue;
    out << ",\n{\"name\": \"" << span_label(s.name) << "\", \"cat\": \""
        << span_layer(s.name) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        << "\"ts\": " << s.start_us << ", \"dur\": " << (s.end_us - s.start_us);
    if (s.cell != kNoCell) out << ", \"args\": {\"cell\": " << s.cell << "}";
    out << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
