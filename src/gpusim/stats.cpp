#include "gpusim/stats.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"

namespace spaden::sim {

KernelStats& KernelStats::operator+=(const KernelStats& o) {
  wavefronts += o.wavefronts;
  l1_hit_bytes += o.l1_hit_bytes;
  sectors += o.sectors;
  dram_bytes += o.dram_bytes;
  l2_hit_bytes += o.l2_hit_bytes;
  mem_instructions += o.mem_instructions;
  lane_loads += o.lane_loads;
  lane_stores += o.lane_stores;
  cuda_ops += o.cuda_ops;
  tc_mma_m16n16k16 += o.tc_mma_m16n16k16;
  tc_mma_m8n8k4 += o.tc_mma_m8n8k4;
  atomic_lane_ops += o.atomic_lane_ops;
  shuffle_lane_ops += o.shuffle_lane_ops;
  warps_launched += o.warps_launched;
  exposed_stall_cycles += o.exposed_stall_cycles;
  remote_sectors += o.remote_sectors;
  comm_stall_cycles += o.comm_stall_cycles;
  return *this;
}

KernelStats& KernelStats::operator-=(const KernelStats& o) {
  const auto sub = [](std::uint64_t& a, std::uint64_t b) {
    SPADEN_ASSERT(a >= b, "counter delta underflow: %llu - %llu",
                  static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    a -= b;
  };
  sub(wavefronts, o.wavefronts);
  sub(l1_hit_bytes, o.l1_hit_bytes);
  sub(sectors, o.sectors);
  sub(dram_bytes, o.dram_bytes);
  sub(l2_hit_bytes, o.l2_hit_bytes);
  sub(mem_instructions, o.mem_instructions);
  sub(lane_loads, o.lane_loads);
  sub(lane_stores, o.lane_stores);
  sub(cuda_ops, o.cuda_ops);
  sub(tc_mma_m16n16k16, o.tc_mma_m16n16k16);
  sub(tc_mma_m8n8k4, o.tc_mma_m8n8k4);
  sub(atomic_lane_ops, o.atomic_lane_ops);
  sub(shuffle_lane_ops, o.shuffle_lane_ops);
  sub(warps_launched, o.warps_launched);
  sub(exposed_stall_cycles, o.exposed_stall_cycles);
  sub(remote_sectors, o.remote_sectors);
  sub(comm_stall_cycles, o.comm_stall_cycles);
  return *this;
}

void KernelStats::to_json(JsonWriter& w) const {
  w.begin_object();
  w.field("wavefronts", wavefronts);
  w.field("l1_hit_bytes", l1_hit_bytes);
  w.field("sectors", sectors);
  w.field("dram_bytes", dram_bytes);
  w.field("l2_hit_bytes", l2_hit_bytes);
  w.field("mem_instructions", mem_instructions);
  w.field("lane_loads", lane_loads);
  w.field("lane_stores", lane_stores);
  w.field("cuda_ops", cuda_ops);
  w.field("tc_mma_m16n16k16", tc_mma_m16n16k16);
  w.field("tc_mma_m8n8k4", tc_mma_m8n8k4);
  w.field("atomic_lane_ops", atomic_lane_ops);
  w.field("shuffle_lane_ops", shuffle_lane_ops);
  w.field("warps_launched", warps_launched);
  // Conditional so serial-mode output stays byte-identical to pre-stall-model
  // goldens: the counter can only be nonzero under an interleaving scheduler.
  if (exposed_stall_cycles != 0) {
    w.field("exposed_stall_cycles", exposed_stall_cycles);
  }
  // Same byte-identity contract for the multi-device counters: both stay
  // zero whenever a launch runs without a device group's remote window.
  if (remote_sectors != 0) {
    w.field("remote_sectors", remote_sectors);
  }
  if (comm_stall_cycles != 0) {
    w.field("comm_stall_cycles", comm_stall_cycles);
  }
  w.end_object();
}

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& o) {
  t_dram += o.t_dram;
  t_l2 += o.t_l2;
  t_lsu += o.t_lsu;
  t_cuda += o.t_cuda;
  t_tc += o.t_tc;
  t_launch += o.t_launch;
  t_stall += o.t_stall;
  t_comm += o.t_comm;
  total += o.total;
  return *this;
}

void TimeBreakdown::to_json(JsonWriter& w) const {
  w.begin_object();
  w.field("t_dram", t_dram);
  w.field("t_l2", t_l2);
  w.field("t_lsu", t_lsu);
  w.field("t_cuda", t_cuda);
  w.field("t_tc", t_tc);
  w.field("t_launch", t_launch);
  if (t_stall != 0) {
    w.field("t_stall", t_stall);
  }
  if (t_comm != 0) {
    w.field("t_comm", t_comm);
  }
  w.field("total", total);
  w.field("bound_by", bound_by());
  w.end_object();
}

std::string KernelStats::summary() const {
  return strfmt(
      "wavefronts=%llu sectors=%llu dram=%llu B l2hit=%llu B mem_instr=%llu cuda_ops=%llu "
      "mma16=%llu mma884=%llu atomics=%llu warps=%llu",
      static_cast<unsigned long long>(wavefronts),
      static_cast<unsigned long long>(sectors), static_cast<unsigned long long>(dram_bytes),
      static_cast<unsigned long long>(l2_hit_bytes),
      static_cast<unsigned long long>(mem_instructions),
      static_cast<unsigned long long>(cuda_ops),
      static_cast<unsigned long long>(tc_mma_m16n16k16),
      static_cast<unsigned long long>(tc_mma_m8n8k4),
      static_cast<unsigned long long>(atomic_lane_ops),
      static_cast<unsigned long long>(warps_launched));
}

const char* TimeBreakdown::bound_by() const {
  const double m = std::max({t_dram, t_l2, t_lsu, t_cuda, t_tc});
  if (t_comm > m && t_comm > t_stall && t_comm > t_launch) {
    return "comm";
  }
  if (t_stall > m && t_stall > t_launch) {
    return "stall";
  }
  if (t_launch > m) {
    return "launch";
  }
  if (m == t_dram) {
    return "dram";
  }
  if (m == t_l2) {
    return "l2";
  }
  if (m == t_lsu) {
    return "lsu";
  }
  if (m == t_cuda) {
    return "cuda";
  }
  return "tc";
}

std::string TimeBreakdown::summary() const {
  if (t_comm != 0) {
    return strfmt(
        "total=%.3f us (dram=%.3f l2=%.3f lsu=%.3f cuda=%.3f tc=%.3f launch=%.3f "
        "stall=%.3f comm=%.3f) bound=%s",
        total * 1e6, t_dram * 1e6, t_l2 * 1e6, t_lsu * 1e6, t_cuda * 1e6, t_tc * 1e6,
        t_launch * 1e6, t_stall * 1e6, t_comm * 1e6, bound_by());
  }
  if (t_stall != 0) {
    return strfmt(
        "total=%.3f us (dram=%.3f l2=%.3f lsu=%.3f cuda=%.3f tc=%.3f launch=%.3f "
        "stall=%.3f) bound=%s",
        total * 1e6, t_dram * 1e6, t_l2 * 1e6, t_lsu * 1e6, t_cuda * 1e6, t_tc * 1e6,
        t_launch * 1e6, t_stall * 1e6, bound_by());
  }
  return strfmt(
      "total=%.3f us (dram=%.3f l2=%.3f lsu=%.3f cuda=%.3f tc=%.3f launch=%.3f) bound=%s",
      total * 1e6, t_dram * 1e6, t_l2 * 1e6, t_lsu * 1e6, t_cuda * 1e6, t_tc * 1e6,
      t_launch * 1e6, bound_by());
}

}  // namespace spaden::sim
