#include "common/string_util.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace fairidx {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return std::string(input.substr(begin, end - begin));
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

Result<double> ParseDouble(std::string_view input) {
  const std::string trimmed = Trim(input);
  if (trimmed.empty()) {
    return InvalidArgumentError("empty string is not a double");
  }
  char* end = nullptr;
  const double value = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) {
    return InvalidArgumentError("malformed double: '" + trimmed + "'");
  }
  if (!std::isfinite(value)) {
    return OutOfRangeError("double is not finite: '" + trimmed + "'");
  }
  return value;
}

Result<int> ParseInt(std::string_view input) {
  const std::string trimmed = Trim(input);
  if (trimmed.empty()) {
    return InvalidArgumentError("empty string is not an int");
  }
  char* end = nullptr;
  const long value = std::strtol(trimmed.c_str(), &end, 10);
  if (end != trimmed.c_str() + trimmed.size()) {
    return InvalidArgumentError("malformed int: '" + trimmed + "'");
  }
  if (value < INT_MIN || value > INT_MAX) {
    return OutOfRangeError("int out of range: '" + trimmed + "'");
  }
  return static_cast<int>(value);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

}  // namespace fairidx
