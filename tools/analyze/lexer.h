// Lexical front end of radiocast_analyze.
//
// The analyzer is a lexer, not a compiler: it strips comments and
// literals, then reasons over identifier tokens and per-line shapes. This
// header owns the C++ lexing corner cases (raw strings, digit separators,
// unterminated literals) so every check sees the same view of a file:
//
//   * scrub()           — the comment/string/char/raw-string state machine,
//                         producing per-line code, comment, and
//                         code-with-string-contents views;
//   * small helpers (trim, identifier classification, call detection).
//
// Everything here is deliberately dependency-free (no radiocast library)
// so the tool builds in seconds and can gate CI before any compile stage.
#pragma once

#include <string>
#include <vector>

namespace radiocast::analyze {

bool starts_with(const std::string& s, const char* prefix);
bool is_ident_char(char c);
bool is_digit(char c);

/// Strips leading/trailing spaces, tabs, and a trailing '\r'.
std::string trim(const std::string& s);

/// True when the next non-space character at or after `from` is '(' —
/// distinguishes `time(...)` calls from `time_point` mentions.
bool next_nonspace_is_paren(const std::string& code, std::size_t from);

/// One file split into per-line views by the lexical scrub.
struct scrubbed {
  /// Code with comments removed and string/char-literal CONTENTS blanked
  /// (the delimiting quotes survive). Token rules match against this view
  /// so banned names in messages or test fixtures cannot fire.
  std::vector<std::string> code;
  /// Comment text only — where suppression annotations live.
  std::vector<std::string> comment;
  /// Code with string-literal contents KEPT (comments still removed).
  /// The taint pass reads this view to see telemetry key names in
  /// sink calls like `set("wall_ms", v)`.
  std::vector<std::string> code_strings;
};

/// Lexically scrubs one file. Handles //, /*...*/, "...", '...', raw
/// strings R"delim(...)delim", and digit separators (1'000'000); an
/// unterminated ordinary literal recovers at end of line so one bad line
/// cannot swallow the rest of the file.
scrubbed scrub(const std::string& text);

}  // namespace radiocast::analyze
