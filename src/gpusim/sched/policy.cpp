#include "gpusim/sched/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace spaden::sim {

const char* sched_policy_name(SchedPolicy p) {
  return p == SchedPolicy::Serial ? "serial" : "rr";
}

SchedConfig parse_sched(const std::string& spec, const char* source) {
  SchedConfig cfg;
  std::string policy = spec;
  if (const auto colon = policy.find(':'); colon != std::string::npos) {
    const std::optional<long> window = parse_long(policy.c_str() + colon + 1);
    SPADEN_REQUIRE(window && *window >= 1 && *window <= 1024,
                   "%s window in '%s' is not an integer in [1, 1024]", source, spec.c_str());
    cfg.window = static_cast<int>(*window);
    policy.resize(colon);
  }
  if (policy == "rr") {
    cfg.policy = SchedPolicy::RoundRobin;
  } else {
    SPADEN_REQUIRE(policy == "serial",
                   "%s: unknown scheduling policy '%s' (expected serial|rr[:window])", source,
                   policy.c_str());
  }
  return cfg;
}

SchedConfig default_sched() {
  const char* env = std::getenv("SPADEN_SIM_SCHED");
  if (env == nullptr || env[0] == '\0') {
    return SchedConfig{};
  }
  return parse_sched(env, "SPADEN_SIM_SCHED");
}

SchedConfig default_engine_sched() {
  const char* env = std::getenv("SPADEN_SIM_SCHED");
  if (env != nullptr && env[0] != '\0') {
    return default_sched();
  }
  SchedConfig cfg;
  cfg.policy = SchedPolicy::RoundRobin;
  return cfg;
}

int resident_window(const DeviceSpec& spec, const SchedConfig& cfg,
                    std::uint64_t num_warps) {
  const int max_resident = std::max(1, spec.max_warps_per_sm);
  if (cfg.window > 0) {
    return std::min(cfg.window, max_resident);
  }
  const double occ = launch_occupancy(spec, num_warps);
  const int window = static_cast<int>(std::lround(occ * max_resident));
  return std::clamp(window, 1, max_resident);
}

}  // namespace spaden::sim
