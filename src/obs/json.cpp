#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <new>
#include <system_error>

namespace radiocast::obs {

// ------------------------------------------------------------ value model

json_value::json_value(const json_value& other) : kind_(other.kind_) {
  switch (kind_) {
    case kind::string: new (&str_) std::string(other.str_); break;
    case kind::array: new (&items_) std::vector<json_value>(other.items_); break;
    case kind::object: new (&members_) std::vector<member>(other.members_); break;
    case kind::number: num_ = other.num_; break;
    default: int_ = other.int_;
  }
}

json_value::json_value(json_value&& other) noexcept : kind_(other.kind_) {
  switch (kind_) {
    case kind::string: new (&str_) std::string(std::move(other.str_)); break;
    case kind::array:
      new (&items_) std::vector<json_value>(std::move(other.items_));
      break;
    case kind::object:
      new (&members_) std::vector<member>(std::move(other.members_));
      break;
    case kind::number: num_ = other.num_; break;
    default: int_ = other.int_;
  }
}

json_value& json_value::operator=(json_value other) noexcept {
  destroy();
  new (this) json_value(std::move(other));
  return *this;
}

void json_value::destroy() noexcept {
  switch (kind_) {
    case kind::string: str_.~basic_string(); break;
    case kind::array: items_.~vector(); break;
    case kind::object: members_.~vector(); break;
    default: break;
  }
}

void json_value::become(kind k) noexcept {
  destroy();
  kind_ = k;
  if (k == kind::array) {
    new (&items_) std::vector<json_value>();
  } else {
    new (&members_) std::vector<member>();
  }
}

const std::string& json_value::as_string() const {
  static const std::string empty;
  return kind_ == kind::string ? str_ : empty;
}

const std::vector<json_value>& json_value::items() const {
  static const std::vector<json_value> empty;
  return kind_ == kind::array ? items_ : empty;
}

const std::vector<json_value::member>& json_value::members() const {
  static const std::vector<member> empty;
  return kind_ == kind::object ? members_ : empty;
}

void json_value::set(std::string key, json_value v) {
  std::vector<member>& all = members();
  for (auto& [k, existing] : all) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  all.emplace_back(std::move(key), std::move(v));
}

std::optional<std::int64_t> json_value::as_exact_int() const {
  if (kind_ == kind::integer) return int_;
  if (kind_ != kind::number) return std::nullopt;
  if (!(num_ >= -0x1p63 && num_ < 0x1p63) || std::trunc(num_) != num_) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(num_);
}

std::optional<std::int64_t> int_in_range(const json_value& v,
                                         const std::string& key,
                                         std::int64_t lo, std::int64_t hi,
                                         std::string* error) {
  const std::optional<std::int64_t> i = v.as_exact_int();
  if (i && *i >= lo && *i <= hi) return i;
  if (error != nullptr) {
    *error = "\"" + key + "\" must be an integer";
    if (lo != INT64_MIN || hi != INT64_MAX) {
      *error += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
  }
  return std::nullopt;
}

const json_value* json_value::find(std::string_view key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const json_value* json_value::find_path(std::string_view dotted) const {
  const json_value* cur = this;
  std::size_t pos = 0;
  while (cur != nullptr && pos < dotted.size()) {
    const std::size_t dot = dotted.find('.', pos);
    cur = cur->find(dotted.substr(pos, dot == std::string_view::npos
                                           ? std::string_view::npos
                                           : dot - pos));
    if (dot == std::string_view::npos) return cur;
    pos = dot + 1;
  }
  return cur;
}

bool operator==(const json_value& a, const json_value& b) {
  using kind = json_value::kind;
  if (a.is_number() && b.is_number()) {
    if (a.kind_ == kind::integer && b.kind_ == kind::integer) {
      return a.int_ == b.int_;
    }
    return a.as_double() == b.as_double();
  }
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case kind::null: return true;
    case kind::boolean: return a.int_ == b.int_;
    case kind::string: return a.str_ == b.str_;
    case kind::array: return a.items_ == b.items_;
    case kind::object: return a.members_ == b.members_;
    default: return false;  // numbers handled above
  }
}

// ---------------------------------------------------------------- writing

namespace {

void append_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending stretch that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s, run);
  out += '"';
}

void append_int(std::string& out, std::int64_t i) {
  char buf[24];
  const char* const end = std::to_chars(buf, buf + sizeof buf, i).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// The shortest printf "%.{p}g", p ≤ 17, that reads back as `d`. No p
/// below the digit count of the shortest round-tripping form can read
/// back, so the search starts there; "%.17g" always does.
void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan; null keeps readers honest
    return;
  }
  char buf[32];
  char* const buf_end = buf + sizeof buf;
  const char* const sci_end =
      std::to_chars(buf, buf_end, d, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != sci_end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  for (int p = digits; ; ++p) {
    const char* const end =
        std::to_chars(buf, buf_end, d, std::chars_format::general, p).ptr;
    double back = 0.0;
    const auto read = std::from_chars(buf, end, back);
    if (p >= 17 || (read.ec == std::errc() && back == d)) {
      out.append(buf, static_cast<std::size_t>(end - buf));
      return;
    }
  }
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void json_value::write_impl(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  switch (kind_) {
    case kind::null: out += "null"; break;
    case kind::boolean: out += int_ != 0 ? "true" : "false"; break;
    case kind::integer: append_int(out, int_); break;
    case kind::number: append_double(out, num_); break;
    case kind::string: append_string(out, str_); break;
    case kind::array: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) append_indent(out, indent, depth + 1);
        items_[i].write_impl(out, indent, depth + 1);
      }
      if (pretty && !items_.empty()) append_indent(out, indent, depth);
      out += ']';
      break;
    }
    case kind::object: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) append_indent(out, indent, depth + 1);
        append_string(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.write_impl(out, indent, depth + 1);
      }
      if (pretty && !members_.empty()) append_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

void json_value::write(std::ostream& os, int indent) const {
  const std::string text = dump(indent);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string json_value::dump(int indent) const {
  std::string out;
  write_impl(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------- parsing

namespace {

constexpr int kMaxDepth = 512;

struct parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool consume(char c) {
    if (at_end() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool parse_value(json_value& out, int depth) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth + 1);
      case '[': return parse_array(out, depth + 1);
      case '"': return parse_string_value(out);
      case 't': return parse_literal("true", out, json_value(true));
      case 'f': return parse_literal("false", out, json_value(false));
      case 'n': return parse_literal("null", out, json_value());
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, json_value& out, json_value v) {
    if (text.substr(pos, lit.size()) != lit) {
      return fail("expected '" + std::string(lit) + "'");
    }
    pos += lit.size();
    out = std::move(v);
    return true;
  }

  bool parse_number(json_value& out) {
    const std::size_t start = pos;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos;
    bool is_integer = true;
    while (!at_end() &&
           ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
            peek() == 'e' || peek() == 'E' || peek() == '+' ||
            peek() == '-')) {
      if (peek() == '.' || peek() == 'e' || peek() == 'E') is_integer = false;
      ++pos;
    }
    if (pos == start) return fail("expected a number");
    const char* const first = text.data() + start;
    const char* const last = text.data() + pos;
    if (is_integer) {
      std::int64_t v = 0;
      const auto [p, ec] = std::from_chars(first, last, v);
      if (ec == std::errc() && p == last) {
        out = json_value(v);
        return true;
      }
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(first, last, d);
    if (ec == std::errc() && p == last) {
      out = json_value(d);
      return true;
    }
    return fail("malformed number '" + std::string(first, last) + "'");
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (true) {
      const std::size_t run = pos;
      while (!at_end() && peek() != '"' && peek() != '\\') ++pos;
      out.append(text, run, pos - run);
      if (at_end() || peek() == '"') return consume('"');
      ++pos;  // the backslash
      if (at_end()) return fail("dangling escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Our writers only escape control chars; decode BMP code points
          // to UTF-8 for completeness.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool parse_string_value(json_value& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = json_value(std::move(s));
    return true;
  }

  bool parse_array(json_value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than " + std::to_string(kMaxDepth));
    if (!consume('[')) return false;
    std::vector<json_value>& items = out.items();
    items.clear();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!parse_value(items.emplace_back(), depth)) return false;
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  /// A repeated key replaces the earlier value in its place, as set() does.
  bool parse_object(json_value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than " + std::to_string(kMaxDepth));
    if (!consume('{')) return false;
    std::vector<json_value::member>& members = out.members();
    members.clear();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      json_value* slot = nullptr;
      for (auto& [k, v] : members) {
        if (k == key) {
          slot = &v;
          break;
        }
      }
      if (slot == nullptr) {
        slot = &members.emplace_back(std::move(key), json_value()).second;
      }
      if (!parse_value(*slot, depth)) return false;
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }
};

}  // namespace

std::optional<json_value> json_parse(std::string_view text,
                                     std::string* error) {
  parser p{text, 0, {}};
  json_value out;
  if (!p.parse_value(out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return out;
}

std::optional<std::vector<json_value>> ndjson_parse(std::string_view text,
                                                    std::string* error) {
  std::vector<json_value> docs;
  std::size_t line_start = 0;
  int line_no = 1;
  while (line_start <= text.size()) {
    std::size_t nl = text.find('\n', line_start);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(line_start, nl - line_start);
    if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
      std::string line_error;
      auto doc = json_parse(line, &line_error);
      if (!doc) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": " + line_error;
        }
        return std::nullopt;
      }
      docs.push_back(std::move(*doc));
    }
    line_start = nl + 1;
    ++line_no;
  }
  return docs;
}

}  // namespace radiocast::obs
