#include "gpusim/device_spec.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace spaden::sim {

void apply_link_preset(DeviceSpec& spec, const std::string& preset) {
  std::string lower(preset.size(), '\0');
  std::transform(preset.begin(), preset.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "nvlink") {
    // NVLink-class: a few-GB/s-per-lane mesh, several peer links live at once.
    spec.link_latency_us = 2.0;
    spec.link_bandwidth_gbps = 50.0;
    spec.links_per_device = 4;
    return;
  }
  if (lower == "pcie") {
    // PCIe-class: one shared host link, higher latency, lower bandwidth.
    spec.link_latency_us = 10.0;
    spec.link_bandwidth_gbps = 25.0;
    spec.links_per_device = 1;
    return;
  }
  throw Error(
      strfmt("unknown link preset '%s' (expected 'nvlink' or 'pcie')", preset.c_str()));
}

DeviceSpec l40() {
  DeviceSpec d;
  d.name = "L40";
  d.sm_count = 142;
  d.cuda_cores_per_sm = 128;
  d.tensor_cores_per_sm = 4;  // 568 total (paper §5.1)
  d.max_warps_per_sm = 48;
  d.clock_ghz = 2.49;
  d.dram_bandwidth_gbps = 864.0;
  d.l2_bandwidth_gbps = 4600.0;
  d.fp32_tflops = 90.5;
  d.tc_half_tflops = 181.0;  // dense FP16 with FP32 accumulate
  d.l2_capacity_bytes = 96ull * 1024 * 1024;
  d.l2_ways = 16;
  // The paper modified DASP for fp32 output on L40 and observed suboptimal
  // performance; mma.m8n8k4 is documented as Volta-optimized.
  d.mma_m8n8k4_efficiency = 0.03;
  d.mma_m16n16k16_efficiency = 1.0;
  d.kernel_launch_us = 0.5;
  // Ada at 2.49 GHz: ~13 ns L1, ~85 ns L2, ~250 ns GDDR6 load-to-use.
  d.l1_latency_cycles = 33;
  d.l2_latency_cycles = 210;
  d.dram_latency_cycles = 620;
  // Calibrated by tools/calibrate_sched.py against serial fig6 GFLOPS
  // (constants table in docs/performance_model.md). Ada's deeper DRAM
  // latency needs one more per-warp in-flight slot than Volta to keep the
  // interleaved drift inside the 1% calibration target.
  d.lsu_wavefronts_per_cycle_ilv = 1.0;
  d.cuda_issue_efficiency_ilv = 0.7;
  d.mem_parallelism_ilv = 5.0;
  d.stall_exposure_ilv = 0.5;
  return d;
}

DeviceSpec v100() {
  DeviceSpec d;
  d.name = "V100";
  d.sm_count = 80;
  d.cuda_cores_per_sm = 64;
  d.tensor_cores_per_sm = 8;  // 640 total (paper §5.1)
  d.max_warps_per_sm = 64;
  d.clock_ghz = 1.53;
  d.dram_bandwidth_gbps = 897.0;
  d.l2_bandwidth_gbps = 2150.0;
  d.fp32_tflops = 15.7;
  d.tc_half_tflops = 125.0;
  d.l2_capacity_bytes = 6ull * 1024 * 1024;
  d.l2_ways = 16;
  d.mma_m8n8k4_efficiency = 1.0;  // native Volta shape
  d.mma_m16n16k16_efficiency = 1.0;
  d.kernel_launch_us = 0.6;
  // Volta at 1.53 GHz: ~18 ns L1, ~126 ns L2, ~280 ns HBM2 load-to-use.
  d.l1_latency_cycles = 28;
  d.l2_latency_cycles = 193;
  d.dram_latency_cycles = 430;
  d.lsu_wavefronts_per_cycle_ilv = 1.0;
  d.cuda_issue_efficiency_ilv = 0.7;
  d.mem_parallelism_ilv = 4.0;
  d.stall_exposure_ilv = 0.5;
  return d;
}

DeviceSpec device_by_name(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "l40") {
    return l40();
  }
  if (lower == "v100") {
    return v100();
  }
  throw Error(strfmt("unknown device preset '%s' (expected 'l40' or 'v100')", name.c_str()));
}

double launch_occupancy(const DeviceSpec& spec, std::uint64_t warps) {
  // A launch too small to fill the device cannot use its full throughput.
  const double occupancy =
      std::min(1.0, static_cast<double>(warps) / spec.saturation_warps());
  return std::max(occupancy, 1.0 / spec.saturation_warps());
}

TimeBreakdown estimate_component_time(const DeviceSpec& spec, const KernelStats& stats,
                                      double occupancy, double stall_sms) {
  SPADEN_REQUIRE(spec.sm_count > 0 && spec.clock_ghz > 0, "device spec '%s' not initialized",
                 spec.name.c_str());
  SPADEN_REQUIRE(occupancy > 0 && occupancy <= 1.0, "occupancy %g out of (0, 1]", occupancy);
  TimeBreakdown t;
  const double occ = occupancy;

  t.t_dram = static_cast<double>(stats.dram_bytes) / (spec.dram_bandwidth_gbps * 1e9) / occ;
  t.t_l2 = static_cast<double>(stats.sectors) * spec.sector_bytes /
           (spec.l2_bandwidth_gbps * 1e9) / occ;
  t.t_lsu = static_cast<double>(stats.wavefronts) /
            (static_cast<double>(spec.sm_count) * spec.lsu_wavefronts_per_cycle *
             spec.clock_ghz * 1e9) /
            occ;

  const double weighted_ops =
      static_cast<double>(stats.cuda_ops) +
      spec.atomic_weight * static_cast<double>(stats.atomic_lane_ops);
  t.t_cuda = weighted_ops / (spec.cuda_op_rate() * spec.cuda_issue_efficiency) / occ;

  const double flops16 = 2.0 * 16 * 16 * 16 * static_cast<double>(stats.tc_mma_m16n16k16);
  const double flops884 = 2.0 * 8 * 8 * 4 * static_cast<double>(stats.tc_mma_m8n8k4);
  t.t_tc = (flops16 / (spec.tc_half_tflops * 1e12 * spec.mma_m16n16k16_efficiency) +
            flops884 / (spec.tc_half_tflops * 1e12 * spec.mma_m8n8k4_efficiency)) /
           occ;

  // Exposed stalls are measured wall-clock cycles on the virtual SMs, not a
  // throughput to derate, so no occupancy division: they just spread over
  // however many real SMs the launch keeps busy, derated by the calibrated
  // exposure fraction (see DeviceSpec::stall_exposure_ilv).
  const double sms = stall_sms > 0 ? stall_sms : static_cast<double>(spec.sm_count);
  t.t_stall = static_cast<double>(stats.exposed_stall_cycles) * spec.stall_exposure_ilv /
              (sms * spec.clock_ghz * 1e9);

  // Communication waits are genuine wire time measured against the same
  // per-SM clocks as stalls, but nothing overlaps them by construction (the
  // scheduler already discounted overlap when it split the clock jump), so
  // no exposure derate.
  t.t_comm =
      static_cast<double>(stats.comm_stall_cycles) / (sms * spec.clock_ghz * 1e9);

  t.total = std::max({t.t_dram, t.t_l2, t.t_lsu, t.t_cuda, t.t_tc}) + t.t_stall + t.t_comm;
  return t;
}

/// SMs a launch of `warps` warps can spread its stall cycles over.
static double stall_sm_count(const DeviceSpec& spec, std::uint64_t warps) {
  const double active = static_cast<double>(std::max<std::uint64_t>(warps, 1));
  return std::min(active, static_cast<double>(spec.sm_count));
}

TimeBreakdown estimate_time(const DeviceSpec& spec, const KernelStats& stats) {
  TimeBreakdown t =
      estimate_component_time(spec, stats, launch_occupancy(spec, stats.warps_launched),
                              stall_sm_count(spec, stats.warps_launched));
  t.t_launch = spec.kernel_launch_us * 1e-6;
  t.total += t.t_launch;
  return t;
}

}  // namespace spaden::sim
