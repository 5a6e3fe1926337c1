#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace radiocast::obs {

void json_value::set(const std::string& key, json_value v) {
  kind_ = kind::object;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
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

const json_value* json_value::find(const std::string& key) const {
  if (kind_ != kind::object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const json_value* json_value::find_path(const std::string& dotted) const {
  const json_value* cur = this;
  std::size_t pos = 0;
  while (cur != nullptr && pos < dotted.size()) {
    const std::size_t dot = dotted.find('.', pos);
    const std::string key = dotted.substr(
        pos, dot == std::string::npos ? std::string::npos : dot - pos);
    cur = cur->find(key);
    if (dot == std::string::npos) return cur;
    pos = dot + 1;
  }
  return cur;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

void write_number(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";  // JSON has no inf/nan; null keeps readers honest
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << d;
  std::string s = tmp.str();
  // Shorten when a lower precision round-trips identically.
  for (int prec = 1; prec < 17; ++prec) {
    std::ostringstream probe;
    probe.precision(prec);
    probe << d;
    if (std::stod(probe.str()) == d) {
      s = probe.str();
      break;
    }
  }
  os << s;
}

void write_indent(std::ostream& os, int indent, int depth) {
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void json_value::write_impl(std::ostream& os, int indent, int depth) const {
  const bool pretty = indent >= 0;
  switch (kind_) {
    case kind::null: os << "null"; break;
    case kind::boolean: os << (bool_ ? "true" : "false"); break;
    case kind::integer: os << int_; break;
    case kind::number: write_number(os, num_); break;
    case kind::string: write_json_string(os, str_); break;
    case kind::array: {
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) os << (pretty ? "," : ",");
        if (pretty) write_indent(os, indent, depth + 1);
        items_[i].write_impl(os, indent, depth + 1);
      }
      if (pretty && !items_.empty()) write_indent(os, indent, depth);
      os << ']';
      break;
    }
    case kind::object: {
      os << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) os << ',';
        if (pretty) write_indent(os, indent, depth + 1);
        write_json_string(os, members_[i].first);
        os << (pretty ? ": " : ":");
        members_[i].second.write_impl(os, indent, depth + 1);
      }
      if (pretty && !members_.empty()) write_indent(os, indent, depth);
      os << '}';
      break;
    }
  }
}

void json_value::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string json_value::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

bool operator==(const json_value& a, const json_value& b) {
  if (a.is_number() && b.is_number()) {
    if (a.kind_ == json_value::kind::integer &&
        b.kind_ == json_value::kind::integer) {
      return a.int_ == b.int_;
    }
    return a.as_double() == b.as_double();
  }
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case json_value::kind::null: return true;
    case json_value::kind::boolean: return a.bool_ == b.bool_;
    case json_value::kind::string: return a.str_ == b.str_;
    case json_value::kind::array: return a.items_ == b.items_;
    case json_value::kind::object: return a.members_ == b.members_;
    default: return false;  // numbers handled above
  }
}

// ---------------------------------------------------------------- parsing

namespace {

struct parser {
  const std::string& text;
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

  bool parse_value(json_value& out) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    const char c = peek();
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string_value(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text.compare(pos, len, lit) != 0) {
      return fail(std::string("expected '") + lit + "'");
    }
    pos += len;
    return true;
  }

  bool parse_null(json_value& out) {
    if (!parse_literal("null")) return false;
    out = json_value(nullptr);
    return true;
  }

  bool parse_bool(json_value& out) {
    if (peek() == 't') {
      if (!parse_literal("true")) return false;
      out = json_value(true);
    } else {
      if (!parse_literal("false")) return false;
      out = json_value(false);
    }
    return true;
  }

  bool parse_number(json_value& out) {
    const std::size_t start = pos;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos;
    bool is_integer = true;
    while (!at_end() &&
           (std::isdigit(static_cast<unsigned char>(peek())) ||
            peek() == '.' || peek() == 'e' || peek() == 'E' ||
            peek() == '+' || peek() == '-')) {
      if (peek() == '.' || peek() == 'e' || peek() == 'E') is_integer = false;
      ++pos;
    }
    if (pos == start) return fail("expected a number");
    const std::string tok = text.substr(start, pos - start);
    if (is_integer) {
      std::int64_t v = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        out = json_value(v);
        return true;
      }
    }
    try {
      out = json_value(std::stod(tok));
    } catch (...) {
      return fail("malformed number '" + tok + "'");
    }
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (!at_end() && peek() != '"') {
      char c = text[pos++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
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
    return consume('"');
  }

  bool parse_string_value(json_value& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = json_value(std::move(s));
    return true;
  }

  bool parse_array(json_value& out) {
    if (!consume('[')) return false;
    out = json_value::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos;
      return true;
    }
    while (true) {
      json_value item;
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_object(json_value& out) {
    if (!consume('{')) return false;
    out = json_value::object();
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
      json_value val;
      if (!parse_value(val)) return false;
      out.set(key, std::move(val));
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

std::optional<json_value> json_parse(const std::string& text,
                                     std::string* error) {
  parser p{text, 0, {}};
  json_value out;
  if (!p.parse_value(out)) {
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

std::optional<std::vector<json_value>> ndjson_parse(const std::string& text,
                                                    std::string* error) {
  std::vector<json_value> docs;
  std::size_t line_start = 0;
  int line_no = 1;
  while (line_start <= text.size()) {
    std::size_t nl = text.find('\n', line_start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(line_start, nl - line_start);
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
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
