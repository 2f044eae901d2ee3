// Checked string-to-number parsing (cert-err34-c): std::atoi/atof return 0
// silently on garbage and parse "12abc" as 12; every env var and CLI flag
// goes through these instead, so a typo is a hard error, not a silent
// default. env_flag is the one reader of the on/off SPADEN_* switches.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace spaden {

/// Strict base-10 integer: the whole string must parse. nullopt on empty,
/// trailing garbage, or out-of-range input.
inline std::optional<long> parse_long(const char* s) {
  if (s == nullptr || *s == '\0') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') {
    return std::nullopt;
  }
  return v;
}

/// Strict floating-point parse with the same whole-string contract.
inline std::optional<double> parse_double(const char* s) {
  if (s == nullptr || *s == '\0') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') {
    return std::nullopt;
  }
  return v;
}

/// On/off environment switch: true when `name` is set to anything but ""
/// or "0" (so "1", "yes" and "off" all switch it on).
inline bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

}  // namespace spaden
