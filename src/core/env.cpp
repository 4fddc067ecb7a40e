#include "core/env.h"

#include <limits>

namespace tpuperf::core {

std::optional<std::int64_t> ParseIntStrict(std::string_view text) noexcept {
  std::size_t i = 0;
  const bool negative = !text.empty() && text[0] == '-';
  if (negative) i = 1;
  if (i == text.size()) return std::nullopt;  // "" or "-"
  // Accumulate negated: |INT64_MIN| > INT64_MAX, so the negative range
  // covers both signs without overflowing before the limit check.
  std::int64_t value = 0;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return std::nullopt;
    const int digit = c - '0';
    if (value < (kMin + digit) / 10) return std::nullopt;  // overflow
    value = value * 10 - digit;
  }
  if (!negative) {
    if (value == kMin) return std::nullopt;  // == -(INT64_MAX + 1)
    value = -value;
  }
  return value;
}

}  // namespace tpuperf::core
