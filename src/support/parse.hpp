#pragma once
// Strict number parsing for command-line flags.

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace drrg::support {

/// All of `text` as one T in [lo, hi] (decimal integers; floating point in
/// std::from_chars' general format).  nullopt on empty text, a sign an
/// unsigned T cannot hold, trailing characters, overflow, NaN or a value
/// out of range -- never a silent truncation.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  if (!(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

}  // namespace drrg::support
