// Metrics registry: counters, gauges, log₂-bucketed histograms, and
// per-step series for observing simulator runs.
//
// Design goals, in order:
//   1. Zero cost when disabled. Instrumentation sites hold a
//      `metrics_registry*` that is null by default; the only overhead of a
//      disabled run is one pointer test per site (guarded by a bench
//      assertion in bench_simulator_throughput).
//   2. Cheap when enabled. Lookups return stable references (the registry
//      is node-based), so hot loops resolve a metric once and then touch a
//      single int64. Protocol code, which has no setup phase of its own,
//      declares a `metric_key` per instrument once at namespace scope and
//      reaches it through `counter_at`/`gauge_at`/`histogram_at`: a bounds
//      check and a pointer load per hit, no string built and no map walked.
//      The string-keyed `get_*` accessors are for setup-time lookups. The
//      simulator's per-step series append is an amortized O(1) vector push.
//   3. Everything exports. The whole registry serializes to one JSON
//      object with deterministic (sorted) key order, so artifacts diff
//      cleanly across runs.
//
// Instruments:
//   * counter   — monotone int64 (transmissions, token hops, echo rounds);
//   * gauge     — last-write-wins int64 (current decay phase, kp stage);
//   * histogram — fixed log₂ buckets: bucket 0 counts values ≤ 1, bucket i
//                 counts values in (2^{i-1}, 2^i]; 64 buckets cover int64;
//   * series    — one int64 per simulator step (frontier size, collisions).
//
// Labeled lookup: every accessor takes an optional label; (name, label)
// pairs are distinct instruments, exported as `name{label}`. Protocols use
// labels for phase markers, e.g. metric_key("kp.tx", "universal").
//
// Not thread-safe: one registry per run (the simulator is single-threaded).
// Parallel trial execution (src/exec/parallel_trials.h) follows from this:
// every worker owns a private registry and the shards are combined
// afterwards with `metrics_registry::merge`, whose semantics are defined so
// that merging per-shard registries in seed order reproduces the registry a
// serial run would have produced bit for bit (counters/histograms add,
// gauges keep the last written value, series concatenate).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace radiocast::obs {

/// Monotone event count.
class counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }

  /// Accumulates another counter (merge = addition; order-independent).
  void merge_from(const counter& other) { value_ += other.value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-written value plus the number of writes.
class gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    ++writes_;
  }
  std::int64_t value() const { return value_; }
  std::int64_t writes() const { return writes_; }

  /// Merges a LATER gauge into this one: `other`'s value wins iff it was
  /// ever written (last-write-wins composes left to right), and write
  /// counts add. Merging shards in seed order reproduces the serial value.
  void merge_from(const gauge& other) {
    if (other.writes_ > 0) value_ = other.value_;
    writes_ += other.writes_;
  }

 private:
  std::int64_t value_ = 0;
  std::int64_t writes_ = 0;
};

/// Fixed log₂-bucket histogram over non-negative int64 values.
class histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index for `v`: 0 for v ≤ 1, otherwise the unique i ≥ 1 with
  /// 2^{i-1} < v ≤ 2^i (i.e. upper bounds 1, 2, 4, 8, …).
  static int bucket_index(std::int64_t v);

  /// Inclusive upper bound of bucket i (2^i; bucket 0 ⇒ 1; the top bucket,
  /// which holds (2^62, 2^63 − 1], ⇒ INT64_MAX).
  static std::int64_t bucket_upper_bound(int i);

  void observe(std::int64_t v);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::int64_t bucket(int i) const { return buckets_[i]; }

  /// Smallest bucket upper bound at or above the pct-th percentile of the
  /// recorded distribution (an upper estimate, as buckets are coarse).
  std::int64_t percentile_bound(double pct) const;

  /// Accumulates another histogram: buckets, count and sum add; min/max
  /// combine. Order-independent.
  void merge_from(const histogram& other);

 private:
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// One value per simulator step. The registry does not enforce alignment;
/// the simulator pushes exactly once per step for every series it owns.
class series {
 public:
  void push(std::int64_t v) { values_.push_back(v); }
  void reserve(std::size_t n) { values_.reserve(n); }
  const std::vector<std::int64_t>& values() const { return values_; }
  std::size_t size() const { return values_.size(); }

  /// Appends another series' values after this one's. Merging shards in
  /// seed order reproduces the concatenation a serial batch would push.
  void append_from(const series& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<std::int64_t> values_;
};

/// A resolve-once handle for the instrument `name{label}`, declared once
/// (at namespace scope) by the code that writes it. It holds the export key
/// and a process-wide dense id; each registry caches id → instrument, so a
/// hit costs one bounds check and one pointer load. Keys carry no
/// instrument kind: the accessor used (counter_at, gauge_at, histogram_at)
/// picks the kind, exactly as with the string-keyed get_* accessors.
class metric_key {
 public:
  explicit metric_key(const std::string& name, const std::string& label = {});

  /// Export key: `name` or `name{label}` (metrics_registry::key).
  const std::string& key() const { return key_; }
  std::uint32_t id() const { return id_; }

 private:
  std::string key_;
  std::uint32_t id_;
};

namespace detail {

/// One registry's metric_key id → instrument table for one instrument kind.
/// The pointers address nodes of the registry's own maps, which never move,
/// so they stay valid until the registry is cleared. A copy starts empty
/// (the source's pointers address the source's maps); a move carries the
/// table along with the map nodes it points into.
template <typename T>
class handle_cache {
 public:
  handle_cache() = default;
  handle_cache(const handle_cache&) {}
  handle_cache& operator=(const handle_cache&) {
    slots_.clear();
    return *this;
  }
  handle_cache(handle_cache&& other) noexcept
      : slots_(std::exchange(other.slots_, {})) {}
  handle_cache& operator=(handle_cache&& other) noexcept {
    slots_ = std::exchange(other.slots_, {});
    return *this;
  }

  T* find(std::uint32_t id) const {
    return id < slots_.size() ? slots_[id] : nullptr;
  }
  void put(std::uint32_t id, T* instrument) {
    if (id >= slots_.size()) slots_.resize(id + 1, nullptr);
    slots_[id] = instrument;
  }
  void clear() { slots_.clear(); }

 private:
  std::vector<T*> slots_;
};

}  // namespace detail

/// Owner of all instruments for one run (or one bench process).
///
/// References returned by the accessors are stable for the registry's
/// lifetime (until clear()). Setup code resolves once through get_* and
/// keeps the reference; protocol code goes through a metric_key.
class metrics_registry {
 public:
  /// Handle lookups: the same instrument get_*(name, label) returns, and
  /// created on first use exactly like it, so an instrument that is never
  /// hit never appears in the export.
  counter& counter_at(const metric_key& k) {
    if (counter* c = counter_cache_.find(k.id())) return *c;
    return resolve_counter(k);
  }
  gauge& gauge_at(const metric_key& k) {
    if (gauge* g = gauge_cache_.find(k.id())) return *g;
    return resolve_gauge(k);
  }
  histogram& histogram_at(const metric_key& k) {
    if (histogram* h = histogram_cache_.find(k.id())) return *h;
    return resolve_histogram(k);
  }

  counter& get_counter(const std::string& name,
                       const std::string& label = {});
  gauge& get_gauge(const std::string& name, const std::string& label = {});
  histogram& get_histogram(const std::string& name,
                           const std::string& label = {});
  series& get_series(const std::string& name, const std::string& label = {});

  /// Lookup without creation; nullptr when the instrument does not exist.
  const counter* find_counter(const std::string& name,
                              const std::string& label = {}) const;
  const gauge* find_gauge(const std::string& name,
                          const std::string& label = {}) const;
  const histogram* find_histogram(const std::string& name,
                                  const std::string& label = {}) const;
  const series* find_series(const std::string& name,
                            const std::string& label = {}) const;

  const std::map<std::string, counter>& counters() const { return counters_; }
  const std::map<std::string, gauge>& gauges() const { return gauges_; }
  const std::map<std::string, histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, series>& all_series() const { return series_; }

  /// Export key for a (name, label) pair: `name` or `name{label}`.
  static std::string key(const std::string& name, const std::string& label);

  /// Drops every instrument (and every cached handle resolution).
  void clear();

  /// Merges `other` into this registry, instrument by instrument (matched
  /// by export key; missing instruments are created). Counters and
  /// histograms add, gauges take `other`'s value when it was written,
  /// series concatenate — so folding per-shard registries **in seed
  /// order** over an empty registry yields a registry bit-identical to the
  /// one a serial pass over the same trials would fill. The workhorse of
  /// parallel_run_trials (src/exec/parallel_trials.h).
  void merge(const metrics_registry& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "series": {...}} with sorted keys. Histograms export count/sum/min/
  /// max/mean plus the non-empty bucket upper bounds and counts.
  json_value to_json() const;

 private:
  counter& resolve_counter(const metric_key& k);
  gauge& resolve_gauge(const metric_key& k);
  histogram& resolve_histogram(const metric_key& k);

  std::map<std::string, counter> counters_;
  std::map<std::string, gauge> gauges_;
  std::map<std::string, histogram> histograms_;
  std::map<std::string, series> series_;
  detail::handle_cache<counter> counter_cache_;
  detail::handle_cache<gauge> gauge_cache_;
  detail::handle_cache<histogram> histogram_cache_;
};

}  // namespace radiocast::obs
