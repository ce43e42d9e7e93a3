#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace wgrap {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(const std::string& s, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::vector<std::string> SplitTokens(std::string_view s) {
  std::vector<std::string> tokens;
  const auto blank = [&s](size_t i) {
    return std::isspace(static_cast<unsigned char>(s[i])) != 0;
  };
  for (size_t i = 0; i < s.size();) {
    if (blank(i)) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < s.size() && !blank(i)) ++i;
    tokens.emplace_back(s.substr(start, i - start));
  }
  return tokens;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string HumanSeconds(double seconds) {
  if (seconds < 1.0) return StrFormat("%.0f ms", seconds * 1e3);
  if (seconds < 120.0) return StrFormat("%.2f s", seconds);
  if (seconds < 7200.0) return StrFormat("%.1f min", seconds / 60.0);
  return StrFormat("%.1f h", seconds / 3600.0);
}

namespace {

template <typename T>
bool FromChars(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseInt(std::string_view text, int* out) { return FromChars(text, out); }

bool ParseInt64(std::string_view text, int64_t* out) {
  return FromChars(text, out);
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  return FromChars(text, out);
}

bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  if (!FromChars(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseBool(std::string_view text, bool* out) {
  if (text == "true" || text == "1" || text == "on") {
    *out = true;
  } else if (text == "false" || text == "0" || text == "off") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

}  // namespace wgrap
