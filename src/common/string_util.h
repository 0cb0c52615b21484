// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Small string helpers shared across modules.

#ifndef FAIRIDX_COMMON_STRING_UTIL_H_
#define FAIRIDX_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace fairidx {

/// Splits `input` at every occurrence of `delim`. "a,,b" -> {"a", "", "b"}.
std::vector<std::string> Split(std::string_view input, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view input);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view input);

/// Parses a double / int; returns InvalidArgument on malformed input and
/// OutOfRange on a value the type cannot hold (for doubles: nan, ±inf and
/// overflow such as 1e999).
Result<double> ParseDouble(std::string_view input);
Result<int> ParseInt(std::string_view input);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace fairidx

#endif  // FAIRIDX_COMMON_STRING_UTIL_H_
