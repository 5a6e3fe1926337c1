#include "obs/span.h"

#include <sstream>

#include "util/assert.h"

namespace radiocast::obs {

namespace {
span_profiler* g_profiler = nullptr;
}  // namespace

span_profiler* global_profiler() { return g_profiler; }
void set_global_profiler(span_profiler* profiler) { g_profiler = profiler; }

span_profiler::span_profiler() : root_(std::make_unique<span_stats>()) {
  root_->name = "<root>";
}

void span_profiler::begin_span(const std::string& name) {
  span_stats* parent = open_.empty() ? root_.get() : open_.back().node;
  span_stats* node = nullptr;
  for (const auto& child : parent->children) {
    if (child->name == name) {
      node = child.get();
      break;
    }
  }
  if (node == nullptr) {
    parent->children.push_back(std::make_unique<span_stats>());
    node = parent->children.back().get();
    node->name = name;
  }
  // radiocast-analyze: allow(wall-clock) -- span timing is diagnostic output
  // only and never reaches simulation results
  open_.push_back({node, std::chrono::steady_clock::now()});
}

void span_profiler::end_span() {
  RC_REQUIRE_MSG(!open_.empty(), "end_span without a matching begin_span");
  // radiocast-analyze: allow(wall-clock) -- span timing is diagnostic output
  // only and never reaches simulation results
  const auto now = std::chrono::steady_clock::now();
  open_frame frame = open_.back();
  open_.pop_back();
  frame.node->total_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - frame.start)
          .count();
  ++frame.node->count;
}

namespace {

const span_stats* find_in(const span_stats& node, const std::string& name) {
  for (const auto& child : node.children) {
    if (child->name == name) return child.get();
    if (const span_stats* hit = find_in(*child, name)) return hit;
  }
  return nullptr;
}

json_value spans_to_json(const span_stats& node) {
  json_value arr = json_value::array();
  for (const auto& child : node.children) {
    json_value one = json_value::object();
    one.set("name", child->name);
    one.set("total_ms", child->total_ms());
    one.set("count", child->count);
    if (!child->children.empty()) {
      one.set("children", spans_to_json(*child));
    }
    arr.push_back(std::move(one));
  }
  return arr;
}

void render(const span_stats& node, int depth, std::ostream& os) {
  for (const auto& child : node.children) {
    for (int i = 0; i < depth; ++i) os << "  ";
    os << child->name << ": " << child->total_ms() << " ms over "
       << child->count << (child->count == 1 ? " call" : " calls") << '\n';
    render(*child, depth + 1, os);
  }
}

}  // namespace

const span_stats* span_profiler::find(const std::string& name) const {
  return find_in(*root_, name);
}

void span_profiler::clear() {
  RC_REQUIRE_MSG(open_.empty(), "clear() with spans still open");
  root_->children.clear();
}

namespace {

void merge_children(span_stats* dst, const span_stats& src) {
  for (const auto& from : src.children) {
    span_stats* into = nullptr;
    for (const auto& child : dst->children) {
      if (child->name == from->name) {
        into = child.get();
        break;
      }
    }
    if (into == nullptr) {
      dst->children.push_back(std::make_unique<span_stats>());
      into = dst->children.back().get();
      into->name = from->name;
    }
    into->total_ns += from->total_ns;
    into->count += from->count;
    merge_children(into, *from);
  }
}

}  // namespace

void span_profiler::merge(const span_profiler& other) {
  RC_REQUIRE_MSG(other.open_.empty(), "merge() of a profiler with open spans");
  span_stats* dst = open_.empty() ? root_.get() : open_.back().node;
  merge_children(dst, *other.root_);
}

json_value span_profiler::to_json() const { return spans_to_json(*root_); }

std::string span_profiler::report() const {
  std::ostringstream os;
  render(*root_, 0, os);
  return os.str();
}

}  // namespace radiocast::obs
