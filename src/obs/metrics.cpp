#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <limits>

namespace radiocast::obs {

int histogram::bucket_index(std::int64_t v) {
  if (v <= 1) return 0;
  // i with 2^{i-1} < v ≤ 2^i  ⇔  i = bit_width(v - 1).
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v - 1)));
}

std::int64_t histogram::bucket_upper_bound(int i) {
  if (i >= 63) return std::numeric_limits<std::int64_t>::max();
  return std::int64_t{1} << i;
}

void histogram::observe(std::int64_t v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  ++buckets_[bucket_index(v)];
}

void histogram::merge_from(const histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

std::int64_t histogram::percentile_bound(double pct) const {
  if (count_ == 0) return 0;
  const double target = pct / 100.0 * static_cast<double>(count_);
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kBuckets - 1);
}

std::string metrics_registry::key(const std::string& name,
                                  const std::string& label) {
  if (label.empty()) return name;
  return name + "{" + label + "}";
}

namespace {

std::atomic<std::uint32_t> next_metric_key_id{0};

template <typename T>
T& resolve_in(std::map<std::string, T>& instruments,
              detail::handle_cache<T>& cache, const metric_key& k) {
  T& instrument = instruments[k.key()];
  cache.put(k.id(), &instrument);
  return instrument;
}

}  // namespace

metric_key::metric_key(const std::string& name, const std::string& label)
    : key_(metrics_registry::key(name, label)),
      id_(next_metric_key_id.fetch_add(1, std::memory_order_relaxed)) {}

counter& metrics_registry::resolve_counter(const metric_key& k) {
  return resolve_in(counters_, counter_cache_, k);
}

gauge& metrics_registry::resolve_gauge(const metric_key& k) {
  return resolve_in(gauges_, gauge_cache_, k);
}

histogram& metrics_registry::resolve_histogram(const metric_key& k) {
  return resolve_in(histograms_, histogram_cache_, k);
}

counter& metrics_registry::get_counter(const std::string& name,
                                       const std::string& label) {
  return counters_[key(name, label)];
}

gauge& metrics_registry::get_gauge(const std::string& name,
                                   const std::string& label) {
  return gauges_[key(name, label)];
}

histogram& metrics_registry::get_histogram(const std::string& name,
                                           const std::string& label) {
  return histograms_[key(name, label)];
}

series& metrics_registry::get_series(const std::string& name,
                                     const std::string& label) {
  return series_[key(name, label)];
}

namespace {

template <typename Map, typename T = typename Map::mapped_type>
const T* find_in(const Map& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}

}  // namespace

const counter* metrics_registry::find_counter(const std::string& name,
                                              const std::string& label) const {
  return find_in(counters_, key(name, label));
}

const gauge* metrics_registry::find_gauge(const std::string& name,
                                          const std::string& label) const {
  return find_in(gauges_, key(name, label));
}

const histogram* metrics_registry::find_histogram(
    const std::string& name, const std::string& label) const {
  return find_in(histograms_, key(name, label));
}

const series* metrics_registry::find_series(const std::string& name,
                                            const std::string& label) const {
  return find_in(series_, key(name, label));
}

void metrics_registry::merge(const metrics_registry& other) {
  for (const auto& [k, c] : other.counters_) counters_[k].merge_from(c);
  for (const auto& [k, g] : other.gauges_) gauges_[k].merge_from(g);
  for (const auto& [k, h] : other.histograms_) histograms_[k].merge_from(h);
  for (const auto& [k, s] : other.series_) series_[k].append_from(s);
}

void metrics_registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
  counter_cache_.clear();
  gauge_cache_.clear();
  histogram_cache_.clear();
}

json_value metrics_registry::to_json() const {
  json_value root = json_value::object();

  json_value jc = json_value::object();
  for (const auto& [k, c] : counters_) jc.set(k, c.value());
  root.set("counters", std::move(jc));

  json_value jg = json_value::object();
  for (const auto& [k, g] : gauges_) {
    json_value one = json_value::object();
    one.set("value", g.value());
    one.set("writes", g.writes());
    jg.set(k, std::move(one));
  }
  root.set("gauges", std::move(jg));

  json_value jh = json_value::object();
  for (const auto& [k, h] : histograms_) {
    json_value one = json_value::object();
    one.set("count", h.count());
    one.set("sum", h.sum());
    one.set("min", h.min());
    one.set("max", h.max());
    one.set("mean", h.mean());
    json_value bounds = json_value::array();
    json_value counts = json_value::array();
    for (int i = 0; i < histogram::kBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      bounds.push_back(histogram::bucket_upper_bound(i));
      counts.push_back(h.bucket(i));
    }
    one.set("bucket_le", std::move(bounds));
    one.set("bucket_counts", std::move(counts));
    jh.set(k, std::move(one));
  }
  root.set("histograms", std::move(jh));

  json_value js = json_value::object();
  for (const auto& [k, s] : series_) {
    json_value vals = json_value::array();
    std::vector<json_value>& items = vals.items();
    items.reserve(s.values().size());
    for (const std::int64_t v : s.values()) items.emplace_back(v);
    js.set(k, std::move(vals));
  }
  root.set("series", std::move(js));

  return root;
}

}  // namespace radiocast::obs
