// The one textual number format of every spec string (RunSpec, TopologySpec,
// SloSpec): whole-string parsing, so "10x" or "" is an error rather than a
// silently truncated prefix, and shortest round-trip printing, so
// parse(to_string(v)) == v holds bit for bit.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

namespace wasp {

// Parses all of `text` as a T (an integer type or double). Returns false, and
// leaves *out untouched, on an empty string, trailing characters, overflow, or
// a non-finite double.
template <typename T>
bool parse_number(std::string_view text, T* out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

// The shortest decimal form that parses back to exactly `v`: "500", "0.9",
// "123.4567891".
inline std::string format_number(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ptr);
}

}  // namespace wasp
