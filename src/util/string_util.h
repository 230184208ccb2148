// Copyright (c) DBExplorer reproduction authors.
// Small string helpers shared across modules (parser, CSV, renderers).

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dbx {

/// Splits `s` on `delim`; keeps empty fields (CSV semantics).
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII lower-cased copy.
std::string ToLower(std::string_view s);

/// ASCII upper-cased copy.
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a double; returns false on any trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer; returns false on any trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Formats `value` with `digits` places after the decimal point.
std::string FormatDouble(double value, int digits);

/// Renders `s` as a dialect SQL string literal: wraps in single quotes and
/// doubles embedded quotes (the lexer's '' escape), so any value — including
/// ones containing ' — survives a print/parse round trip. Every unparser
/// (Predicate::ToString, query/canonical) must use this; fixed-point bugs
/// here corrupt view-cache keys (tests/fuzz/parser_fuzz.cc guards it).
std::string QuoteSqlString(std::string_view s);

/// Escapes `s` for embedding in a JSON string (adds no quotes): the RFC 8259
/// two-character forms for quote, backslash, BS, FF, LF, CR and TAB, and
/// \u00XX for every other control byte.
std::string JsonEscape(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace dbx
