// Strict parsing of TPUPERF_* numeric environment variables.
//
// std::stoi-style parsing silently accepts trailing garbage ("4x" -> 4) and
// relies on exceptions for overflow; the library's one numeric knob
// (TPUPERF_NUM_THREADS) goes through the full-string parser here instead.
// Malformed values are ignored with a one-line warning to stderr — a typo'd
// override must never silently configure something the user did not ask
// for.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace tpuperf::core {

// Parses `text` as a base-10 integer: optional leading '-', digits, nothing
// else. Returns nullopt for empty input, any non-digit character (including
// whitespace and trailing garbage), or values outside std::int64_t.
std::optional<std::int64_t> ParseIntStrict(std::string_view text) noexcept;

// Reads the integer environment variable `name`. Unset returns `fallback`
// silently; a malformed or overflowing value warns on stderr once per call
// and returns `fallback`; a well-formed value is clamped into
// [min_value, max_value].
std::int64_t EnvInt(const char* name, std::int64_t fallback,
                    std::int64_t min_value, std::int64_t max_value) noexcept;

}  // namespace tpuperf::core
