#include "probes.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>
#include <utility>

#include "graph/graph.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using radiocast::obs::json_value;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

span_log::scope span_log::open(const std::string& name) {
  if (!enabled_) return scope(nullptr, -1);
  record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ns = now_ns();
  spans_.push_back(std::move(r));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return scope(this, index);
}

span_log::scope::~scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  log_->open_.pop_back();
}

json_value span_log::to_json() const {
  json_value out = json_value::array();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const record& r : spans_) {
    json_value s = json_value::object();
    s.set("name", r.name);
    s.set("parent", r.parent);
    s.set("start_ns", r.start_ns - origin);
    s.set("end_ns", r.end_ns - origin);
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------- fault wrapper

timed_fault_model::timed_fault_model(radiocast::fault::fault_model* inner,
                                     std::shared_ptr<fault_timing> timing)
    : inner_(inner), timing_(std::move(timing)) {}

timed_fault_model::timed_fault_model(
    std::unique_ptr<radiocast::fault::fault_model> owned,
    std::shared_ptr<fault_timing> timing)
    : inner_(owned.get()), owned_(std::move(owned)), timing_(std::move(timing)) {}

void timed_fault_model::begin_step(const radiocast::fault::step_view& view,
                                   radiocast::fault::step_faults* out) {
  const std::int64_t t0 = now_ns();
  inner_->begin_step(view, out);
  begin_step_ns_ += now_ns() - t0;
  ++calls_;
}

void timed_fault_model::filter_deliveries(
    const radiocast::fault::step_view& view,
    std::vector<radiocast::fault::delivery_candidate>* candidates) {
  const std::int64_t t0 = now_ns();
  inner_->filter_deliveries(view, candidates);
  filter_ns_ += now_ns() - t0;
  ++calls_;
}

std::unique_ptr<radiocast::fault::fault_model> timed_fault_model::clone()
    const {
  std::unique_ptr<radiocast::fault::fault_model> inner = inner_->clone();
  if (inner == nullptr) return nullptr;
  return std::make_unique<timed_fault_model>(std::move(inner), timing_);
}

void timed_fault_model::flush() {
  timing_->begin_step_ns += std::exchange(begin_step_ns_, 0);
  timing_->filter_ns += std::exchange(filter_ns_, 0);
  timing_->calls += std::exchange(calls_, 0);
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::optional<double> tail_percentile(std::vector<double> v, double pct) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  const double value = v[index];
  const auto beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), value));
  if (beyond < 10) return std::nullopt;
  return value;
}

// ---------------------------------------------------------------- digests

void digest::add(std::int64_t word) {
  auto u = static_cast<std::uint64_t>(word);
  for (int i = 0; i < 8; ++i) {
    h_ ^= u & 0xffU;
    h_ *= 0x100000001b3ULL;
    u >>= 8;
  }
}

void digest::add(const std::string& bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void digest::add(const std::vector<std::int64_t>& words) {
  for (const std::int64_t w : words) add(w);
}

void add_record(digest& d, const radiocast::trial_record& t) {
  d.add(static_cast<std::int64_t>(t.seed));
  d.add(t.completed ? 1 : 0);
  d.add(t.steps);
  d.add(t.informed_step);
  d.add(t.transmissions);
  d.add(t.collisions);
  d.add(t.deliveries);
  d.add(t.crashed_nodes);
  d.add(t.suppressed_deliveries);
  d.add(t.churned_edges);
}

// ------------------------------------------------------------------- host

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

json_value host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  json_value host = json_value::object();
  host.set("nproc", available_cpus());
  host.set("hardware_threads",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu_model", cpu);
#if defined(__clang__)
  host.set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  host.set("compiler", "gcc " __VERSION__);
#else
  host.set("compiler", __VERSION__);
#endif
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  return host;
}

std::int64_t edge_visits(const radiocast::graph& g,
                         const radiocast::run_result& r) {
  std::int64_t visits = 0;
  for (radiocast::node_id v = 0; v < g.node_count(); ++v) {
    visits += r.transmissions_per_node[static_cast<std::size_t>(v)] *
              g.out_degree(v);
  }
  return visits;
}

std::int64_t awake_node_steps(const radiocast::run_result& r) {
  std::int64_t total = 0;
  for (const std::int64_t t : r.informed_at) {
    if (t >= 0) total += r.steps - t;
  }
  return total;
}

std::int64_t csr_bytes_computed(const radiocast::graph& g) {
  const auto n = static_cast<std::int64_t>(g.node_count());
  const auto m = static_cast<std::int64_t>(g.edge_count());
  const auto off = static_cast<std::int64_t>(sizeof(std::size_t));
  const auto id = static_cast<std::int64_t>(sizeof(radiocast::node_id));
  if (g.is_directed()) return 2 * ((n + 1) * off + m * id);
  return (n + 1) * off + 2 * m * id;
}

}  // namespace perfbench
