// Minimal JSON document model for the observability layer.
//
// The bench artifacts (BENCH_<name>.json), the NDJSON trace export, and the
// radiocast_inspect tool all need to build, serialize, and read back small
// JSON documents without third-party dependencies. `json_value` is a plain
// tagged union over the seven JSON shapes with an order-preserving object
// representation (so emitted files diff cleanly run-to-run). A value is one
// tag beside a union of its payloads — a scalar, a string, or the vector of
// an array or object — so a metrics export of a million numbers holds a
// million 40-byte values.
//
// Numbers are written with std::to_chars: an integer exactly, a double as
// the shortest printf "%.{p}g" (p ≤ 17) that reads back to the same double,
// a non-finite double as `null`. The parser reads them with
// std::from_chars and rejects a literal outside the double range.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace radiocast::obs {

/// One JSON value. Objects preserve insertion order; numbers distinguish
/// integers from doubles so step counts round-trip exactly.
class json_value {
 public:
  enum class kind : std::uint8_t {
    null, boolean, integer, number, string, array, object
  };
  using member = std::pair<std::string, json_value>;

  json_value() noexcept : int_(0) {}
  json_value(std::nullptr_t) noexcept : int_(0) {}
  json_value(bool b) noexcept : kind_(kind::boolean), int_(b ? 1 : 0) {}
  json_value(std::int64_t i) noexcept : kind_(kind::integer), int_(i) {}
  json_value(int i) noexcept : kind_(kind::integer), int_(i) {}
  json_value(std::size_t i) noexcept
      : kind_(kind::integer), int_(static_cast<std::int64_t>(i)) {}
  json_value(double d) noexcept : kind_(kind::number), num_(d) {}
  json_value(std::string s) noexcept
      : kind_(kind::string), str_(std::move(s)) {}
  json_value(const char* s) : kind_(kind::string), str_(s) {}

  json_value(const json_value& other);
  json_value(json_value&& other) noexcept;
  /// By value: assigning a value its own child (`v = v.items()[0]`) is safe.
  json_value& operator=(json_value other) noexcept;
  ~json_value() { destroy(); }

  static json_value array() {
    json_value v;
    v.become(kind::array);
    return v;
  }
  static json_value object() {
    json_value v;
    v.become(kind::object);
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

  /// The boolean; false for anything that is not a boolean.
  bool as_bool() const { return kind_ == kind::boolean && int_ != 0; }
  /// The value as an integer, unchecked: a double truncates toward zero
  /// and saturates at the int64 bounds (NaN reads as 0); a non-number
  /// reads as 0. Input files read their integers with as_exact_int.
  std::int64_t as_int() const {
    if (kind_ == kind::integer) return int_;
    if (kind_ != kind::number) return 0;
    if (num_ >= 0x1p63) return INT64_MAX;
    if (num_ >= -0x1p63) return static_cast<std::int64_t>(num_);
    return num_ < 0 ? INT64_MIN : 0;  // below the range, or NaN
  }
  /// The integer this value holds exactly: an integer, or a double with no
  /// fractional part inside the int64 range. std::nullopt for anything
  /// else — non-numbers (booleans and numeric strings included),
  /// fractions, NaN and out-of-range doubles.
  std::optional<std::int64_t> as_exact_int() const;
  /// The number as a double; 0.0 for a non-number.
  double as_double() const {
    if (kind_ == kind::integer) return static_cast<double>(int_);
    return kind_ == kind::number ? num_ : 0.0;
  }
  /// The string; empty for a non-string.
  const std::string& as_string() const;

  // ----- array interface -----
  /// The elements. The mutable overload first turns a non-array into an
  /// empty array, as push_back does; the const one reads a non-array as
  /// empty.
  std::vector<json_value>& items() {
    if (kind_ != kind::array) become(kind::array);
    return items_;
  }
  const std::vector<json_value>& items() const;
  void push_back(json_value v) { items().push_back(std::move(v)); }

  // ----- object interface (order-preserving) -----
  /// The members in insertion order; the mutable overload first turns a
  /// non-object into an empty object, the const one reads it as empty.
  std::vector<member>& members() {
    if (kind_ != kind::object) become(kind::object);
    return members_;
  }
  const std::vector<member>& members() const;
  /// Sets key → value, replacing an existing entry in place.
  void set(std::string key, json_value v);
  /// Member lookup; nullptr when the key is absent (or not an object).
  const json_value* find(std::string_view key) const;
  /// find() but descending a dotted path ("config.n").
  const json_value* find_path(std::string_view dotted) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  std::size_t size() const {
    if (kind_ == kind::object) return members_.size();
    return kind_ == kind::array ? items_.size() : 0;
  }

  /// Serializes. indent < 0 ⇒ compact single line (NDJSON-friendly);
  /// indent ≥ 0 ⇒ pretty-printed with that step.
  void write(std::ostream& os, int indent = -1) const;
  std::string dump(int indent = -1) const;

  friend bool operator==(const json_value&, const json_value&);

 private:
  /// Destroys the payload and starts an empty array or object (`k`).
  void become(kind k) noexcept;
  void destroy() noexcept;
  void write_impl(std::string& out, int indent, int depth) const;

  kind kind_ = kind::null;
  union {
    std::int64_t int_;  // null and boolean (0 or 1) too
    double num_;
    std::string str_;
    std::vector<json_value> items_;
    std::vector<member> members_;
  };
};

static_assert(sizeof(json_value) <= 40,
              "a json_value is one tag beside a string-sized payload");

/// `v` as an integer in [lo, hi] (see json_value::as_exact_int). Otherwise
/// std::nullopt and, when `error` is given, a diagnostic naming `key`:
/// "\"threads\" must be an integer in [0, 2147483647]".
std::optional<std::int64_t> int_in_range(const json_value& v,
                                         const std::string& key,
                                         std::int64_t lo, std::int64_t hi,
                                         std::string* error = nullptr);

/// Parses one JSON document. Returns nullopt (with a position/diagnostic in
/// `*error` when provided) on malformed input; trailing whitespace is
/// allowed, trailing garbage is not. Nesting deeper than 512 arrays and
/// objects is malformed.
std::optional<json_value> json_parse(std::string_view text,
                                     std::string* error = nullptr);

/// Parses newline-delimited JSON: one document per nonempty line. Stops and
/// reports on the first malformed line.
std::optional<std::vector<json_value>> ndjson_parse(
    std::string_view text, std::string* error = nullptr);

}  // namespace radiocast::obs
