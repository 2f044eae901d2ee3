// WarpScheduler: interleaves an occupancy-limited window of resident warps
// on one virtual SM (src/gpusim/sched/).
//
// The classic launchers run each warp to completion in grid order, which the
// cache models register as optimistic temporal locality. Real SM schedulers
// instead keep a window of resident warps and switch between them at memory
// operations. This class reproduces that: each resident warp runs on a
// stackful Fiber, every WarpCtx memory operation is a yield point, and
// round-robin picks which resident warp advances next. When a warp
// finishes, its slot is refilled with the next warp of the SM's range, like
// a fresh thread block rotating in.
//
// Latency model: the scheduler keeps a virtual SM clock (in cycles). Each
// residency interval advances the clock by the issue cost of what the warp
// charged (LSU wavefronts, CUDA lane-ops, tensor-core FLOPs — whichever
// pipe is the bottleneck). Each resident warp owns a small scoreboard of
// in-flight memory ops (spec.mem_parallelism_ilv slots — the per-warp MLP
// the old model approximated by dividing latencies): a memory op that finds
// a free slot records its completion cycle and the warp *keeps running*;
// only when every slot holds a genuinely outstanding op does the warp
// suspend, until the earliest completion frees a slot. Latencies are
// charged raw per level (L1/L2/DRAM, classified per op from the counter
// stream), and fiber switches happen once per filled scoreboard instead of
// once per op. Round-robin only picks among *ready* warps; when every warp
// is waiting, the clock jumps to the earliest completion and the gap is
// charged to KernelStats::exposed_stall_cycles — the cycles nothing could
// cover, which estimate_time turns into the additive t_stall term. With a
// single resident warp the accounting is off and the counter stays 0, so
// the rr:1 window is bit-identical to the serial launcher.
//
// Determinism: the schedule is a pure function of the window and of the
// counter stream the warps produce, so with the per-SM slice L2
// (SPADEN_SIM_SHARED_L2=0) counters, profiles and numerics are
// byte-identical run-to-run at any fixed SPADEN_SIM_THREADS, and the
// engine default (shared L2) is byte-identical at T=1. Under the shared L2
// at T>1 the stall signal depends on cross-thread cache state, so the
// schedule — and with it the cache/stall counters — may wobble across runs
// while numerics and work counters stay exact (warps only communicate
// through atomics; see docs/performance_model.md).
//
// Profiler/sanitizer composition: on every switch the scheduler parks the
// outgoing warp's recorder state (open profiler ranges, sanitizer warp
// attribution) and restores the incoming warp's, so ranges survive
// suspension and event streams stay correctly attributed. Yield points sit
// *after* an operation's charging and recording — a warp instruction is
// atomic with respect to switches. Exposed-stall cycles are charged after
// the incoming warp's ranges are reopened, so they land inside the range the
// warp suspended in and range attribution stays exact across switches.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/sched/fiber.hpp"
#include "gpusim/stats.hpp"

namespace spaden::sim {

class WarpCtx;

/// Type-erased kernel body: Device::launch's template callable behind a
/// void*, so the scheduler stays out of the launch template.
using KernelBody = void (*)(void* kernel, WarpCtx& ctx, std::uint64_t warp);

class WarpScheduler {
 public:
  /// `window` is the resident-warp count per SM (see resident_window()).
  /// `spec` supplies the latency model's constants; Device passes
  /// timing_spec(), which must outlive the scheduler's runs.
  /// `comm_ready_cycles` is the SM-clock cycle (from run() start) the
  /// modeled halo transfer lands: memory ops that touch remote sectors
  /// (KernelStats::remote_sectors movement) cannot complete before it, so
  /// halo-touching warps suspend while local warps keep issuing — the
  /// comm/compute overlap. 0 = no interconnect (exact pre-multi-device
  /// behavior).
  WarpScheduler(int window, const DeviceSpec& spec, double comm_ready_cycles = 0);

  /// Re-point a pooled scheduler at a (possibly) new configuration before
  /// run(). Fiber slots — and their stacks — are reused when the effective
  /// window is unchanged, which is the arena pooling that removes the
  /// per-launch stack allocation traffic.
  void reconfigure(int window, const DeviceSpec& spec, double comm_ready_cycles = 0);

  /// Run warps [start, start + count) of `body` interleaved over the
  /// resident window. Registers itself as ctx's yield sink for the
  /// duration of the call and drives ctx's attached sanitizer/profiler
  /// shards through warp begin/suspend/resume/end. Rethrows the first
  /// kernel exception after abandoning the remaining fibers.
  void run(WarpCtx& ctx, std::uint64_t start, std::uint64_t count, void* kernel,
           KernelBody body);

  /// Yield point, invoked by WarpCtx from inside the executing warp's fiber
  /// at the end of every memory operation.
  void yield_point();

 private:
  /// Scoreboard capacity cap: mem_parallelism_ilv values land well below
  /// this (both shipped specs use 4).
  static constexpr int kMaxScoreboard = 8;

  struct Slot {
    WarpScheduler* owner = nullptr;
    Fiber fiber;
    std::uint64_t warp = 0;
    double ready_at = 0;   ///< virtual-clock cycle the pending memory op completes
    bool live = false;
    bool fresh = true;     ///< shards not yet told about this warp
    /// The warp body returned but in-flight memory ops are still
    /// outstanding; the slot is freed (retired or re-armed) only once the
    /// clock passes the last completion — warps cannot retire ahead of
    /// their scoreboard, so tail latencies stay visible as exposed stalls.
    bool draining = false;
    /// Scoreboard: completion cycles of this warp's in-flight memory ops.
    std::array<double, kMaxScoreboard> inflight{};
    int inflight_n = 0;
    SanShard::WarpState san_state{};
    ProfShard::WarpState prof_state{};
  };

  static void fiber_entry(void* raw);

  void arm(Slot& slot, std::uint64_t warp);
  /// Free slot `s`: rotate the next unlaunched warp in, or mark it dead.
  void retire(std::size_t s);
  /// Next ready slot in round-robin order. Advances the virtual clock past a
  /// stall (accumulating pending_stall_) when no live warp is ready.
  /// Pre: live_count_ > 0.
  [[nodiscard]] std::size_t pick();
  /// Cycles the issuing pipes need for one residency interval's charges.
  [[nodiscard]] double issue_cycles(const KernelStats& delta) const;
  /// Raw latency of the memory op just charged, classified from the
  /// since-last-op counter marks (scoreboard accounting). Updates the
  /// marks and op_was_remote_ (the op touched halo sectors).
  [[nodiscard]] double op_latency();

  int window_;
  const DeviceSpec* spec_ = nullptr;
  WarpCtx* ctx_ = nullptr;
  void* kernel_ = nullptr;
  KernelBody body_ = nullptr;
  KernelStats* stats_ = nullptr;
  SanShard* san_ = nullptr;
  ProfShard* prof_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t next_idx_ = 0;  ///< next unlaunched warp index in [0, count_)
  std::uint64_t count_ = 0;
  std::size_t live_count_ = 0;
  std::size_t current_ = 0;
  std::size_t rr_next_ = 0;        ///< round-robin cursor
  std::uint64_t live_mask_ = 0;    ///< bit per live slot (windows <= 64; pick fast path)
  std::uint64_t op_dram_mark_ = 0;    ///< stats_->dram_bytes after the previous memory op
  std::uint64_t op_sector_mark_ = 0;  ///< stats_->sectors after the previous memory op
  std::uint64_t op_remote_mark_ = 0;  ///< stats_->remote_sectors after the previous op
  bool op_was_remote_ = false;     ///< the op just classified touched halo sectors
  int scoreboard_slots_ = 1;       ///< per-warp in-flight memory ops
  bool timing_ = false;            ///< latency model active (window > 1) this run
  double now_ = 0;                 ///< virtual SM clock, cycles since run() start
  double comm_ready_ = 0;          ///< cycle the modeled halo transfer lands (0 = none)
  double pending_stall_ = 0;     ///< stall cycles awaiting charge (+ residue < 1)
  double pending_comm_ = 0;      ///< comm-wait cycles awaiting charge (+ residue < 1)
  double tc_flops_per_cycle_ = 0;
  KernelStats interval_snap_{};  ///< stats when current_ was (re)started
  std::exception_ptr error_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace spaden::sim
