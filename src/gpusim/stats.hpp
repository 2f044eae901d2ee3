// Hardware event counters collected while a kernel executes on the simulator.
//
// These are *measured* quantities (how many 32-byte sectors the kernel's
// memory instructions touched, how many of those missed the modeled L2, how
// many weighted CUDA-core lane-operations and tensor-core MMAs were issued).
// The DeviceModel converts them into a modeled kernel time; see
// gpusim/device.hpp.
#pragma once

#include <cstdint>
#include <string>

namespace spaden {
class JsonWriter;
}

namespace spaden::sim {

/// Instruction classes with relative CUDA-core costs (in lane-op units; one
/// unit = one single-precision ALU lane-op at peak issue rate).
enum class OpClass {
  IntAlu,    // integer add/shift/mask/compare
  FpAlu,     // fp32 add/mul
  Fma,       // fused multiply-add (counts as one op, two FLOPs)
  Convert,   // type conversion (f32<->f16, int<->float)
  Special,   // division, transcendental (4x)
  Branch,    // divergence handling / predicate evaluation
  Shuffle,   // warp shuffle
  RegMove,   // register-to-register move (fragment direct access)
};

[[nodiscard]] constexpr std::uint64_t op_weight(OpClass c) {
  switch (c) {
    case OpClass::Special:
      return 4;
    case OpClass::IntAlu:
    case OpClass::FpAlu:
    case OpClass::Fma:
    case OpClass::Convert:
    case OpClass::Branch:
    case OpClass::Shuffle:
      return 1;
    case OpClass::RegMove:
      // Direct fragment-register access is free: the decoded value is
      // produced *in* the destination register (the paper's §4.3.3
      // advantage). The conventional staging path charges explicit IntAlu
      // ops instead.
      return 0;
  }
  return 1;
}

struct KernelStats {
  // --- memory system ---
  std::uint64_t wavefronts = 0;         ///< unique 32 B sectors per warp memory
                                        ///< instruction (LSU replay cost; an
                                        ///< uncoalesced instruction costs up to 32)
  std::uint64_t l1_hit_bytes = 0;       ///< sector bytes served by the L1 model
  std::uint64_t sectors = 0;            ///< L2 sector accesses (L1 misses)
  std::uint64_t dram_bytes = 0;         ///< bytes transferred to/from DRAM (L2 misses)
  std::uint64_t l2_hit_bytes = 0;       ///< bytes served from L2
  std::uint64_t mem_instructions = 0;   ///< warp-level load/store instructions
  std::uint64_t lane_loads = 0;         ///< per-lane load operations
  std::uint64_t lane_stores = 0;        ///< per-lane store operations

  // --- compute ---
  std::uint64_t cuda_ops = 0;           ///< weighted CUDA-core lane-ops
  std::uint64_t tc_mma_m16n16k16 = 0;   ///< 16x16x16 half MMA operations
  std::uint64_t tc_mma_m8n8k4 = 0;      ///< 8x8x4 half MMA operations (DASP shape)
  std::uint64_t atomic_lane_ops = 0;    ///< per-lane global atomics
  std::uint64_t shuffle_lane_ops = 0;   ///< per-lane shuffle data movements

  // --- launch shape ---
  std::uint64_t warps_launched = 0;

  // --- scheduler-observed latency ---
  std::uint64_t exposed_stall_cycles = 0;  ///< SM cycles where every resident
                                           ///< warp was suspended on a memory
                                           ///< op and nothing could issue
                                           ///< (gpusim/sched; 0 under serial)

  // --- multi-device halo traffic (gpusim/multidevice; 0 single-device) ---
  std::uint64_t remote_sectors = 0;     ///< L2 sector accesses into x columns
                                        ///< owned by a peer device (halo)
  std::uint64_t comm_stall_cycles = 0;  ///< SM cycles nothing could issue
                                        ///< because warps waited on the
                                        ///< modeled halo transfer

  KernelStats& operator+=(const KernelStats& o);
  /// Counter-wise difference (spaden-prof range attribution: counters at
  /// range exit minus counters at range entry). Requires o <= *this
  /// counter-wise; asserts underflow in debug builds.
  KernelStats& operator-=(const KernelStats& o);
  [[nodiscard]] friend KernelStats operator-(KernelStats a, const KernelStats& b) {
    a -= b;
    return a;
  }
  [[nodiscard]] bool operator==(const KernelStats& o) const = default;

  /// Total bytes that crossed the L2 interface (hits + misses).
  [[nodiscard]] std::uint64_t l2_bytes() const { return dram_bytes + l2_hit_bytes; }

  /// Tensor-core FLOPs issued (2*M*N*K per MMA).
  [[nodiscard]] double tc_flops() const {
    return 2.0 * (static_cast<double>(tc_mma_m16n16k16) * 16 * 16 * 16 +
                  static_cast<double>(tc_mma_m8n8k4) * 8 * 8 * 4);
  }

  [[nodiscard]] std::string summary() const;

  /// Emit every counter as one JSON object (stable key order — the bench
  /// and profiler schemas depend on it).
  void to_json(JsonWriter& w) const;
};

/// Per-component modeled times for one kernel launch (seconds).
struct TimeBreakdown {
  double t_dram = 0;    ///< DRAM bandwidth term
  double t_l2 = 0;      ///< L2 sector-bandwidth term (L1 misses)
  double t_lsu = 0;     ///< load/store-unit wavefront term (coalescing cost)
  double t_cuda = 0;    ///< CUDA-core throughput term
  double t_tc = 0;      ///< tensor-core throughput term
  double t_launch = 0;  ///< fixed kernel-launch overhead
  double t_stall = 0;   ///< exposed-stall correction (latency nothing covered;
                        ///< additive on top of the binding roofline term)
  double t_comm = 0;    ///< interconnect wait (modeled halo-exchange wire time
                        ///< compute could not cover; additive like t_stall)
  double total = 0;     ///< t_launch + max(throughput terms) + t_stall + t_comm

  /// Field-wise sum: the cost of running two launches back to back, each
  /// paying its own breakdown in full (every term, t_launch included).
  TimeBreakdown& operator+=(const TimeBreakdown& o);

  /// Name of the binding resource ("dram", "l2", "lsu", "cuda", "tc",
  /// "stall", "comm", "launch").
  [[nodiscard]] const char* bound_by() const;
  [[nodiscard]] std::string summary() const;

  /// Emit every term (seconds) plus bound_by as one JSON object.
  void to_json(JsonWriter& w) const;
};

}  // namespace spaden::sim
