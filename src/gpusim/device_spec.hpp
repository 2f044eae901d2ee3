// Device parameter sets and the analytical timing model.
//
// The paper evaluates on NVIDIA L40 (568 4th-gen tensor cores) and V100
// (640 1st-gen tensor cores). We model each device with published
// architectural parameters; the timing estimator is a roofline over the
// counters gathered during functional simulation:
//
//   T = T_launch + max(T_dram, T_l2, T_cuda, T_tc) / occupancy
//
//   T_dram = dram_bytes / dram_bandwidth          (L2 misses)
//   T_l2   = sectors * 32 B / l2_bandwidth        (all sector traffic)
//   T_cuda = weighted lane-ops / cuda_op_rate
//   T_tc   = MMA FLOPs / (tc_peak * shape_efficiency)
//
// Two parameters deserve comment:
//  * mma_m8n8k4_efficiency — DASP's key instruction is optimized for Volta;
//    the paper (§5.2, citing the PTX ISA) notes it "may suffer from
//    substantially reduced performance on other architectures". We set 1.0
//    on V100 and a strong penalty on L40.
//  * l2_bandwidth — the LSU/L2 sector-throughput ceiling. It is the binding
//    resource for cache-resident, gather-heavy kernels and is what keeps
//    modeled Spaden speedups in the paper's 1.3–1.7x band over cuSPARSE CSR
//    instead of the pure-DRAM-ratio ~3x.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/stats.hpp"

namespace spaden::sim {

struct DeviceSpec {
  std::string name;

  // Topology.
  int sm_count = 0;
  int cuda_cores_per_sm = 0;
  int tensor_cores_per_sm = 0;
  int max_warps_per_sm = 48;

  // Clocks and throughputs.
  double clock_ghz = 0;             ///< sustained SM clock
  double dram_bandwidth_gbps = 0;   ///< GB/s
  double l2_bandwidth_gbps = 0;     ///< GB/s of sector traffic through L2/LSU
  double fp32_tflops = 0;           ///< CUDA-core peak (FMA counted as 2 FLOPs)
  double tc_half_tflops = 0;        ///< tensor-core peak, fp16 in / fp32 acc

  // Cache. The L1 capacity is a single-cache proxy for the per-SM L1s: each
  // virtual SM owns one SM-sized L1, and the warps it hosts — sequential
  // under the serial scheduling policy, an interleaved resident window under
  // rr (gpusim/sched) — see approximately the locality each real L1 would.
  std::uint64_t l1_capacity_bytes = 128 * 1024;
  int l1_ways = 8;
  std::uint64_t l2_capacity_bytes = 0;
  int l2_ways = 16;
  std::uint32_t sector_bytes = 32;

  // Modeling knobs.
  double mma_m8n8k4_efficiency = 1.0;  ///< shape efficiency for DASP's MMA
  double mma_m16n16k16_efficiency = 1.0;
  double kernel_launch_us = 0.5;       ///< fixed launch + drain overhead
  double atomic_weight = 4.0;          ///< lane-op cost of one global atomic
  /// Unique sectors an SM's LSU retires per cycle: a fully uncoalesced warp
  /// load (32 sectors) replays ~32x longer than a coalesced one (Fig. 8's
  /// CSR Warp16 mechanism).
  double lsu_wavefronts_per_cycle = 1.0;
  /// Fraction of peak issue rate real memory-intermixed kernels achieve.
  double cuda_issue_efficiency = 0.7;

  // --- interleaved-scheduler timing (gpusim/sched) ---
  // Load-to-use latencies in SM cycles, by the level that served the access;
  // the scheduler uses them to decide when a suspended warp becomes ready
  // again and to measure *exposed* stall cycles (nothing issuable). Values
  // are microbenchmark-scale per architecture, then nudged by
  // tools/calibrate_sched.py (see docs/performance_model.md).
  int l1_latency_cycles = 32;
  int l2_latency_cycles = 200;
  int dram_latency_cycles = 600;
  /// Issue-side constants recalibrated for rr traffic
  /// (tools/calibrate_sched.py): with exposed stalls charged explicitly by
  /// the scheduler, part of the flat derating that stood in for latency
  /// effects under serial timing is lifted. `Device::timing_spec()` swaps
  /// these in for lsu_wavefronts_per_cycle / cuda_issue_efficiency whenever
  /// the scheduling policy interleaves.
  double lsu_wavefronts_per_cycle_ilv = 1.0;
  double cuda_issue_efficiency_ilv = 0.7;
  /// Outstanding memory requests per warp the latency model credits — the
  /// rr scoreboard depth. Real warps keep several independent loads in
  /// flight before the first use stalls them; the scheduler gives each
  /// resident warp this many in-flight slots, charges every memory op its
  /// raw level latency, and only suspends the warp when all slots hold
  /// outstanding ops. Calibrated per architecture by
  /// tools/calibrate_sched.py.
  double mem_parallelism_ilv = 4.0;
  /// Fraction of the virtual SMs' measured exposed-stall cycles charged as
  /// device wall-clock (t_stall). The scheduler replays an entire SM
  /// partition through one resident window against one clock, so every
  /// window's cold start and retire drain is observed back to back; on the
  /// real device block starts stagger across SMs and DRAM queuing overlaps
  /// neighbouring windows, hiding part of that exposure. Calibrated with
  /// the other _ilv constants (tools/calibrate_sched.py).
  double stall_exposure_ilv = 1.0;

  // --- interconnect (multi-device execution, gpusim/multidevice) ---
  // One point-to-point link model shared by every device pair in a group:
  // a shard's halo fetch of remote x sectors costs
  //   wire_seconds = link_latency_us * 1e-6
  //                + halo_bytes / (link_bandwidth_gbps * 1e9 * active_links)
  // where active_links = min(peer count, links_per_device). Presets:
  // apply_link_preset("nvlink"|"pcie"); the defaults below are "nvlink".
  double link_latency_us = 2.0;      ///< one-way launch-to-first-byte latency
  double link_bandwidth_gbps = 50.0; ///< GB/s per direction per link
  int links_per_device = 4;          ///< concurrent peer links per device

  /// Peak CUDA-core lane-op rate (ops/s): one op per core per cycle.
  [[nodiscard]] double cuda_op_rate() const {
    return static_cast<double>(sm_count) * cuda_cores_per_sm * clock_ghz * 1e9;
  }

  /// Warps needed in flight to consider the device fully occupied. SpMV
  /// kernels have high memory-level parallelism per warp, so ~4 warps per
  /// SM suffice to saturate the bandwidth-side rooflines; fewer than that
  /// genuinely underutilizes the device (the mechanism that lets plain BSR
  /// keep up with Spaden on the small dense-block matrices, where Spaden's
  /// 16-rows-per-warp launch has the fewest warps in flight). Distinct from
  /// `max_warps_per_sm`, the residency ceiling: the warp scheduler
  /// (gpusim/sched) sizes its resident window as max_warps_per_sm scaled by
  /// launch_occupancy, so a launch big enough to saturate the rooflines
  /// also fills the scheduler's window.
  [[nodiscard]] double saturation_warps() const {
    return static_cast<double>(sm_count) * 4.0;
  }
};

/// NVIDIA L40 (Ada Lovelace): 142 SMs, 18176 CUDA cores, 568 tensor cores,
/// 96 MB L2, 864 GB/s GDDR6.
DeviceSpec l40();

/// NVIDIA V100 (Volta): 80 SMs, 5120 CUDA cores, 640 tensor cores, 6 MB L2,
/// 897 GB/s HBM2.
DeviceSpec v100();

/// Look up a preset by name ("l40" or "v100"); throws on unknown name.
DeviceSpec device_by_name(const std::string& name);

/// Overwrite the interconnect fields with a named preset:
///   "nvlink" — 2 us latency, 50 GB/s per direction, 4 links per device
///   "pcie"   — 10 us latency, 25 GB/s per direction, 1 link per device
/// Throws on unknown name.
void apply_link_preset(DeviceSpec& spec, const std::string& preset);

/// Convert measured counters into a modeled execution time. When the stats
/// carry exposed_stall_cycles (interleaved scheduling), an additive
/// latency-exposure term t_stall = cycles / (min(warps, sm_count) * clock)
/// joins the roofline: modeled time = launch + max(throughput terms) +
/// stalls nothing could cover, spread over the SMs the launch can occupy.
TimeBreakdown estimate_time(const DeviceSpec& spec, const KernelStats& stats);

/// Occupancy factor estimate_time applies to a launch of `warps` warps
/// (clamped to [1/saturation_warps, 1]).
[[nodiscard]] double launch_occupancy(const DeviceSpec& spec, std::uint64_t warps);

/// Time attribution for a *subset* of a launch's counters — a spaden-prof
/// range or one virtual SM's share. Same rooflines as estimate_time but at
/// the parent launch's occupancy and without the fixed launch overhead, so
/// each per-resource term is additive across disjoint subsets and `total`
/// (the max term plus the subset's t_stall) is comparable with the launch's
/// total - t_launch. `stall_sms` is the SM count the parent launch's stall
/// cycles spread over (estimate_time's min(warps, sm_count)); pass the
/// parent's value so t_stall stays additive across subsets, or 0 to default
/// to spec.sm_count.
TimeBreakdown estimate_component_time(const DeviceSpec& spec, const KernelStats& stats,
                                      double occupancy, double stall_sms = 0);

}  // namespace spaden::sim
