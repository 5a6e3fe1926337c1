// Minimal JSON document model for the observability layer.
//
// The bench artifacts (BENCH_<name>.json), the NDJSON trace export, and the
// radiocast_inspect tool all need to build, serialize, and read back small
// JSON documents without third-party dependencies. `json_value` is a plain
// tagged union over the seven JSON shapes with an order-preserving object
// representation (so emitted files diff cleanly run-to-run).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace radiocast::obs {

/// One JSON value. Objects preserve insertion order; numbers distinguish
/// integers from doubles so step counts round-trip exactly.
class json_value {
 public:
  enum class kind { null, boolean, integer, number, string, array, object };

  json_value() : kind_(kind::null) {}
  json_value(std::nullptr_t) : kind_(kind::null) {}
  json_value(bool b) : kind_(kind::boolean), bool_(b) {}
  json_value(std::int64_t i) : kind_(kind::integer), int_(i) {}
  json_value(int i) : kind_(kind::integer), int_(i) {}
  json_value(std::size_t i)
      : kind_(kind::integer), int_(static_cast<std::int64_t>(i)) {}
  json_value(double d) : kind_(kind::number), num_(d) {}
  json_value(std::string s) : kind_(kind::string), str_(std::move(s)) {}
  json_value(const char* s) : kind_(kind::string), str_(s) {}

  static json_value array() {
    json_value v;
    v.kind_ = kind::array;
    return v;
  }
  static json_value object() {
    json_value v;
    v.kind_ = kind::object;
    return v;
  }

  kind type() const { return kind_; }
  bool is_null() const { return kind_ == kind::null; }
  bool is_object() const { return kind_ == kind::object; }
  bool is_array() const { return kind_ == kind::array; }
  bool is_number() const {
    return kind_ == kind::integer || kind_ == kind::number;
  }
  bool is_string() const { return kind_ == kind::string; }

  bool as_bool() const { return bool_; }
  /// The value as an integer, unchecked: a double truncates toward zero
  /// and saturates at the int64 bounds (NaN reads as 0); a non-number
  /// reads as 0. Input files read their integers with as_exact_int.
  std::int64_t as_int() const {
    if (kind_ != kind::number) return int_;
    if (num_ >= 0x1p63) return INT64_MAX;
    if (num_ >= -0x1p63) return static_cast<std::int64_t>(num_);
    return num_ < 0 ? INT64_MIN : 0;  // below the range, or NaN
  }
  /// The integer this value holds exactly: an integer, or a double with no
  /// fractional part inside the int64 range. std::nullopt for anything
  /// else — non-numbers (booleans and numeric strings included),
  /// fractions, NaN and out-of-range doubles.
  std::optional<std::int64_t> as_exact_int() const;
  double as_double() const {
    return kind_ == kind::integer ? static_cast<double>(int_) : num_;
  }
  const std::string& as_string() const { return str_; }

  // ----- array interface -----
  std::vector<json_value>& items() { return items_; }
  const std::vector<json_value>& items() const { return items_; }
  void push_back(json_value v) {
    kind_ = kind::array;
    items_.push_back(std::move(v));
  }

  // ----- object interface (order-preserving) -----
  const std::vector<std::pair<std::string, json_value>>& members() const {
    return members_;
  }
  /// Sets key → value, replacing an existing entry in place.
  void set(const std::string& key, json_value v);
  /// Member lookup; nullptr when the key is absent (or not an object).
  const json_value* find(const std::string& key) const;
  /// find() but descending a dotted path ("config.n").
  const json_value* find_path(const std::string& dotted) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  std::size_t size() const {
    return kind_ == kind::object ? members_.size() : items_.size();
  }

  /// Serializes. indent < 0 ⇒ compact single line (NDJSON-friendly);
  /// indent ≥ 0 ⇒ pretty-printed with that step.
  void write(std::ostream& os, int indent = -1) const;
  std::string dump(int indent = -1) const;

  friend bool operator==(const json_value&, const json_value&);

 private:
  void write_impl(std::ostream& os, int indent, int depth) const;

  kind kind_ = kind::null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<json_value> items_;
  std::vector<std::pair<std::string, json_value>> members_;
};

/// `v` as an integer in [lo, hi] (see json_value::as_exact_int). Otherwise
/// std::nullopt and, when `error` is given, a diagnostic naming `key`:
/// "\"threads\" must be an integer in [0, 2147483647]".
std::optional<std::int64_t> int_in_range(const json_value& v,
                                         const std::string& key,
                                         std::int64_t lo, std::int64_t hi,
                                         std::string* error = nullptr);

/// Escapes and quotes `s` as a JSON string literal.
void write_json_string(std::ostream& os, const std::string& s);

/// Parses one JSON document. Returns nullopt (with a position/diagnostic in
/// `*error` when provided) on malformed input; trailing whitespace is
/// allowed, trailing garbage is not.
std::optional<json_value> json_parse(const std::string& text,
                                     std::string* error = nullptr);

/// Parses newline-delimited JSON: one document per nonempty line. Stops and
/// reports on the first malformed line.
std::optional<std::vector<json_value>> ndjson_parse(
    const std::string& text, std::string* error = nullptr);

}  // namespace radiocast::obs
