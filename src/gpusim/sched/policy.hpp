// Scheduling policy configuration for the warp scheduler (src/gpusim/sched/).
//
// `serial` is the classic launcher: every warp runs to completion in grid
// order, bit-for-bit the pre-scheduler behaviour. `rr` interleaves an
// occupancy-limited window of resident warps per virtual SM, which is what
// the cache models need to see realistic (less optimistic) temporal
// locality — see docs/performance_model.md for the measured drift.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device_spec.hpp"

namespace spaden::sim {

/// Which resident warp advances at each yield point.
enum class SchedPolicy : std::uint8_t {
  Serial = 0,  ///< run-to-completion in grid order (the classic launcher)
  RoundRobin,  ///< switch to the next ready resident warp (scoreboard model)
};

[[nodiscard]] const char* sched_policy_name(SchedPolicy p);

struct SchedConfig {
  SchedPolicy policy = SchedPolicy::Serial;
  /// Resident warps per virtual SM. 0 = derive from the device spec:
  /// max_warps_per_sm scaled by the launch's occupancy estimate.
  int window = 0;
  bool operator==(const SchedConfig&) const = default;
};

/// Parse "serial" | "rr" with an optional ":window" suffix (e.g. "rr:8")
/// that pins the resident window to an integer in [1, 1024]. The one
/// parser behind SPADEN_SIM_SCHED and the CLI's --sched; `source` names
/// the variable or flag in the error thrown on anything else.
[[nodiscard]] SchedConfig parse_sched(const std::string& spec, const char* source);

/// Environment default: parse_sched(SPADEN_SIM_SCHED). Unset means serial —
/// a raw Device stays the classic launcher.
[[nodiscard]] SchedConfig default_sched();

/// Engine-level scheduling default (EngineOptions::sched): SPADEN_SIM_SCHED
/// wins when set (including "serial" to force the classic launcher);
/// otherwise interleaved round-robin with the occupancy-derived window —
/// the figure-generating mode since the rr + shared-L2 recalibration
/// (docs/performance_model.md).
[[nodiscard]] SchedConfig default_engine_sched();

/// Occupancy-limited resident-warp window for one virtual SM: the device's
/// maximum residency scaled by the launch's occupancy estimate, never below
/// 1 and never above max_warps_per_sm. A cfg.window > 0 overrides the
/// derivation (still clamped to the device maximum).
[[nodiscard]] int resident_window(const DeviceSpec& spec, const SchedConfig& cfg,
                                  std::uint64_t num_warps);

}  // namespace spaden::sim
