// Strict integer parsing for TPUPERF_* environment values.
//
// std::stoi-style parsing silently accepts trailing garbage ("4x" -> 4) and
// relies on exceptions for overflow; TPUPERF_FAULTS's counts go through the
// full-string parser here instead, so a typo'd value is rejected rather
// than silently configuring something the user did not ask for.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace tpuperf::core {

// Parses `text` as a base-10 integer: optional leading '-', digits, nothing
// else. Returns nullopt for empty input, any non-digit character (including
// whitespace and trailing garbage), or values outside std::int64_t.
std::optional<std::int64_t> ParseIntStrict(std::string_view text) noexcept;

}  // namespace tpuperf::core
