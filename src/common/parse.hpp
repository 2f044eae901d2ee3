// Checked string-to-number parsing (cert-err34-c): std::atoi/atof return 0
// silently on garbage and parse "12abc" as 12; every env var and CLI flag
// goes through these instead, so a typo is a hard error, not a silent
// default. env_flag is the one reader of the on/off SPADEN_* switches, and
// kEnvNames is the one list of SPADEN_* variables anything reads.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/error.hpp"

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

/// On/off environment switch: off when `name` is unset, "" or "0", on when
/// it is "1". Any other value ("yes", "off", ...) throws spaden::Error
/// naming the variable, so no spelling of "off" can switch a knob on.
inline bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0) {
    return false;
  }
  if (std::strcmp(env, "1") == 0) {
    return true;
  }
  throw Error(strfmt("%s=%s is not an on/off value (expected unset, \"\", \"0\" or \"1\")",
                     name, env));
}

/// Every SPADEN_* environment variable the library, the CLI and the benches
/// read — README's "Simulator knobs" table names exactly these, and each is
/// set by some test, CI step, bench or benchmark workload (ctest
/// readme_knob_table checks both).
inline constexpr std::array<std::string_view, 10> kEnvNames = {
    "SPADEN_SIM_THREADS",
    "SPADEN_SIM_SCHED",
    "SPADEN_SANCHECK",
    "SPADEN_TELEMETRY",
    "SPADEN_VERIFY_FORMAT",
    "SPADEN_CONVERT_THREADS",
    "SPADEN_SCALE",
    "SPADEN_SERVE_SIM_THREADS",
    "SPADEN_BENCH_DIR",
    "SPADEN_BENCH_ONLY",
};

/// Throw spaden::Error naming the first SPADEN_* variable in the
/// environment that is not in kEnvNames: a stale or misspelled knob fails
/// by name instead of being silently ignored. sim::Device's constructor and
/// the CLI's main() call this.
inline void check_env_names() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (entry.rfind("SPADEN_", 0) != 0) {
      continue;
    }
    const std::string_view name = entry.substr(0, entry.find('='));
    if (std::find(kEnvNames.begin(), kEnvNames.end(), name) == kEnvNames.end()) {
      throw Error(strfmt("unknown environment variable %.*s: no SPADEN_* knob has that name "
                         "(README.md, \"Simulator knobs\")",
                         static_cast<int>(name.size()), name.data()));
    }
  }
}

}  // namespace spaden
