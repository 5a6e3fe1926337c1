#include "analyze/lexer.h"

#include <cctype>

namespace radiocast::analyze {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool next_nonspace_is_paren(const std::string& code, std::size_t from) {
  for (std::size_t i = from; i < code.size(); ++i) {
    if (code[i] == ' ' || code[i] == '\t') continue;
    return code[i] == '(';
  }
  return false;
}

namespace {

/// True when `code` ends in a raw-string prefix (R, uR, UR, LR, u8R) that
/// is not the tail of a longer identifier.
bool ends_with_raw_prefix(const std::string& code) {
  const std::size_t n = code.size();
  if (n == 0 || code[n - 1] != 'R') return false;
  std::size_t start = n - 1;  // first char of the candidate prefix
  if (start >= 1 && (code[start - 1] == 'u' || code[start - 1] == 'U' ||
                     code[start - 1] == 'L')) {
    --start;
    if (start >= 1 && code[start] == 'u' && code[start - 1] == 'u') {
      // not a prefix; "uu" cannot start one
    } else if (start >= 1 && code[start - 1] == '8' && start >= 2 &&
               code[start - 2] == 'u') {
      start -= 2;  // u8R
    }
  }
  return start == 0 || !is_ident_char(code[start - 1]);
}

}  // namespace

scrubbed scrub(const std::string& text) {
  scrubbed out;
  out.code.emplace_back();
  out.comment.emplace_back();
  out.code_strings.emplace_back();
  enum class state { code, line_comment, block_comment, string, chr, raw };
  state st = state::code;
  std::string raw_end;  // ")delim\"" closing the active raw string
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (st == state::line_comment) st = state::code;
      // Unterminated ordinary literal: recover at end of line so one bad
      // line cannot swallow the rest of the file.
      if (st == state::string || st == state::chr) st = state::code;
      out.code.emplace_back();
      out.comment.emplace_back();
      out.code_strings.emplace_back();
      continue;
    }
    std::string& code = out.code.back();
    std::string& comment = out.comment.back();
    std::string& with_str = out.code_strings.back();
    switch (st) {
      case state::code:
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          st = state::line_comment;
          ++i;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          st = state::block_comment;
          ++i;
        } else if (c == '"' && ends_with_raw_prefix(code)) {
          raw_end.clear();
          raw_end.push_back(')');
          std::size_t j = i + 1;
          while (j < n && text[j] != '(' && text[j] != '\n') {
            raw_end.push_back(text[j]);
            ++j;
          }
          raw_end.push_back('"');
          i = j;  // at '(' (or recover at newline-1)
          if (j < n && text[j] == '\n') --i;
          st = state::raw;
          code.push_back('"');
          with_str.push_back('"');
        } else if (c == '"') {
          st = state::string;
          code.push_back('"');
          with_str.push_back('"');
        } else if (c == '\'' && !code.empty() && is_digit(code.back())) {
          code.push_back(c);  // digit separator, e.g. 1'000'000
          with_str.push_back(c);
        } else if (c == '\'') {
          st = state::chr;
          code.push_back('\'');
          with_str.push_back('\'');
        } else {
          code.push_back(c);
          with_str.push_back(c);
        }
        break;
      case state::line_comment:
        comment.push_back(c);
        break;
      case state::block_comment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          st = state::code;
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case state::string:
        if (c == '\\' && i + 1 < n && text[i + 1] != '\n') {
          with_str.push_back(c);
          with_str.push_back(text[i + 1]);
          ++i;
        } else if (c == '"') {
          st = state::code;
          code.push_back('"');
          with_str.push_back('"');
        } else {
          with_str.push_back(c);
        }
        break;
      case state::chr:
        if (c == '\\' && i + 1 < n && text[i + 1] != '\n') {
          with_str.push_back(c);
          with_str.push_back(text[i + 1]);
          ++i;
        } else if (c == '\'') {
          st = state::code;
          code.push_back('\'');
          with_str.push_back('\'');
        } else {
          with_str.push_back(c);
        }
        break;
      case state::raw:
        if (text.compare(i, raw_end.size(), raw_end) == 0) {
          i += raw_end.size() - 1;
          st = state::code;
          code.push_back('"');
          with_str.push_back('"');
        } else {
          with_str.push_back(c);
        }
        break;
    }
  }
  return out;
}

}  // namespace radiocast::analyze
