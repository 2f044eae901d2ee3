// Warp-synchronous execution context.
//
// Kernels in this library are written the way CUDA warp-level code is
// reasoned about: a warp of 32 lanes advances in lockstep, values live in
// per-lane registers (Lanes<T>), and cross-lane communication happens
// through shuffles, ballots and reductions. The context charges every
// operation to the kernel's counters so the performance model sees exactly
// what the code does.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "gpusim/controller.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/stats.hpp"

namespace spaden::sim {

inline constexpr int kWarpSize = 32;
inline constexpr std::uint32_t kFullMask = 0xFFFF'FFFFu;

/// Per-lane register file entry: one value per lane of the warp.
template <typename T>
using Lanes = std::array<T, kWarpSize>;

template <typename T>
Lanes<T> make_lanes(T value) {
  Lanes<T> l;
  l.fill(value);
  return l;
}

/// Lane indices 0..31 (threadIdx.x % 32).
Lanes<std::uint32_t> lane_ids();

class WarpScheduler;
/// Out-of-line hop into the scheduler's yield point (keeps warp.hpp free of
/// the scheduler header; defined in sched/scheduler.cpp).
void sched_yield_point(WarpScheduler& sched);

/// Number of active lanes in a mask, as a charge-friendly count.
[[nodiscard]] inline std::uint64_t active_lanes(std::uint32_t mask) {
  return static_cast<std::uint64_t>(std::popcount(mask));
}

class WarpCtx {
 public:
  WarpCtx(MemoryController* mc, KernelStats* stats) : mc_(mc), stats_(stats) {}

  [[nodiscard]] KernelStats& stats() { return *stats_; }

  /// Attach a sanitizer event recorder (spaden-sancheck). Null (the default)
  /// disables recording; the hooks then cost one pointer test per warp
  /// instruction and modeled time is unaffected either way.
  void set_sanitizer(SanShard* shard) { san_ = shard; }
  [[nodiscard]] SanShard* sanitizer() const { return san_; }

  /// Attach a profiler recorder (spaden-prof). Null (the default) disables
  /// range recording at the cost of one pointer test per push/pop; the
  /// profiler never charges counters, so modeled time is unaffected.
  void set_profiler(ProfShard* shard) { prof_ = shard; }
  [[nodiscard]] ProfShard* profiler() const { return prof_; }

  /// Attach a warp scheduler (gpusim/sched): every global-memory operation
  /// then becomes a yield point where another resident warp of this virtual
  /// SM may advance. Null (the default) keeps run-to-completion execution
  /// at the cost of one pointer test per memory operation. Yield points sit
  /// after the operation's charging and recording, so a warp instruction is
  /// atomic with respect to warp switches. What may a kernel hold across a
  /// yield? Anything per-warp (locals, fragments, open ProfRanges); what it
  /// must NOT assume is inter-warp ordering beyond atomics — the same
  /// contract CUDA gives it (docs/writing_kernels.md).
  void set_scheduler(WarpScheduler* sched) { sched_ = sched; }
  [[nodiscard]] WarpScheduler* scheduler() const { return sched_; }

  /// NVTX-style named phase markers: counters accumulated between push and
  /// the matching pop are attributed to `name` in the launch's profile.
  /// `name` must outlive the launch (string literals in practice). Nesting
  /// is allowed; a warp's ranges must all pop before the kernel returns —
  /// prefer the ProfRange RAII guard in kernels with early returns.
  void range_push(const char* name) {
    if (prof_ != nullptr) {
      prof_->range_push(name);
    }
  }
  void range_pop() {
    if (prof_ != nullptr) {
      prof_->range_pop();
    }
  }

  // ----- compute charging -------------------------------------------------

  /// Charge `lane_count` lane-operations of class `c` (e.g. 32 for a fully
  /// active warp instruction).
  void charge(OpClass c, std::uint64_t lane_count) {
    stats_->cuda_ops += op_weight(c) * lane_count;
  }

  // ----- global memory ----------------------------------------------------

  /// Gather: lane i loads element idx[i]; inactive lanes (mask bit clear)
  /// return T{}.
  template <typename T>
  Lanes<T> gather(DSpan<const T> src, const Lanes<std::uint32_t>& idx,
                  std::uint32_t mask = kFullMask) {
    std::array<std::uint64_t, kWarpSize> addrs{};
    std::array<std::uint32_t, kWarpSize> sizes{};
    Lanes<T> out{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        SPADEN_ASSERT(idx[l] < src.size, "gather lane %d out of bounds: %u >= %zu", lane,
                      idx[l], src.size);
        out[l] = src.data[idx[l]];
        addrs[l] = src.addr_of(idx[l]);
        sizes[l] = sizeof(T);
      }
    }
    issue_lanes(SanAccess::Load, addrs, sizes, mask);
    return out;
  }

  /// Paired gather, the simulator's ld.global.v2: lane i loads elements
  /// idx[i] and idx[i] + 1 as one access of 2 * sizeof(T) bytes, which must
  /// be aligned to its size (an odd index into an aligned span is not).
  /// One warp memory instruction — charged, sanitizer-recorded and yielded
  /// exactly like gather — so a warp reading 8-float segments pays one
  /// wavefront per segment sector instead of two instructions' worth.
  /// Returns the idx[i] elements in .first and the idx[i] + 1 elements in
  /// .second; inactive lanes return T{}.
  template <typename T>
  std::pair<Lanes<T>, Lanes<T>> gather2(DSpan<const T> src, const Lanes<std::uint32_t>& idx,
                                        std::uint32_t mask = kFullMask) {
    std::array<std::uint64_t, kWarpSize> addrs{};
    std::array<std::uint32_t, kWarpSize> sizes{};
    std::pair<Lanes<T>, Lanes<T>> out{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        SPADEN_ASSERT(std::size_t{idx[l]} + 1 < src.size,
                      "gather2 lane %d out of bounds: %u + 1 >= %zu", lane, idx[l], src.size);
        addrs[l] = src.addr_of(idx[l]);
        SPADEN_ASSERT(addrs[l] % (2 * sizeof(T)) == 0,
                      "gather2 lane %d misaligned: element %u at 0x%llx is not %zu-byte aligned",
                      lane, idx[l], static_cast<unsigned long long>(addrs[l]), 2 * sizeof(T));
        out.first[l] = src.data[idx[l]];
        out.second[l] = src.data[idx[l] + 1];
        sizes[l] = 2 * sizeof(T);
      }
    }
    issue_lanes(SanAccess::Load, addrs, sizes, mask);
    return out;
  }

  /// Scatter: lane i stores v[i] to element idx[i].
  template <typename T>
  void scatter(DSpan<T> dst, const Lanes<std::uint32_t>& idx, const Lanes<T>& v,
               std::uint32_t mask = kFullMask) {
    std::array<std::uint64_t, kWarpSize> addrs{};
    std::array<std::uint32_t, kWarpSize> sizes{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        SPADEN_ASSERT(idx[l] < dst.size, "scatter lane %d out of bounds: %u >= %zu", lane,
                      idx[l], dst.size);
        dst.data[idx[l]] = v[l];
        addrs[l] = dst.addr_of(idx[l]);
        sizes[l] = sizeof(T);
      }
    }
    issue_lanes(SanAccess::Store, addrs, sizes, mask);
  }

  /// Broadcast scalar load: one lane loads, the value is shuffled to all
  /// (the common "lane 0 reads the row pointer" idiom).
  template <typename T>
  T scalar_load(DSpan<const T> src, std::size_t idx) {
    SPADEN_ASSERT(idx < src.size, "scalar load out of bounds: %zu >= %zu", idx, src.size);
    mc_->access_range(src.addr_of(idx), sizeof(T), /*is_store=*/false);
    charge(OpClass::IntAlu, 1);
    if (san_ != nullptr) {
      san_->begin_instr(SanAccess::Load, 0x1u);
      san_->lane_access(0, src.addr_of(idx), sizeof(T));
    }
    const T value = src.data[idx];
    maybe_yield();
    return value;
  }

  /// Scalar store from one lane.
  template <typename T>
  void scalar_store(DSpan<T> dst, std::size_t idx, T value) {
    SPADEN_ASSERT(idx < dst.size, "scalar store out of bounds: %zu >= %zu", idx, dst.size);
    dst.data[idx] = value;
    mc_->access_range(dst.addr_of(idx), sizeof(T), /*is_store=*/true);
    charge(OpClass::IntAlu, 1);
    if (san_ != nullptr) {
      san_->begin_instr(SanAccess::Store, 0x1u);
      san_->lane_access(0, dst.addr_of(idx), sizeof(T));
    }
    maybe_yield();
  }

  /// Per-lane atomic add (atomicAdd on float). Genuinely atomic on the
  /// host (CAS loop), so warps running on different simulation threads can
  /// accumulate into shared y concurrently — the ordering of float adds is
  /// then scheduler-dependent, exactly like atomicAdd on hardware.
  void atomic_add(DSpan<float> dst, const Lanes<std::uint32_t>& idx, const Lanes<float>& v,
                  std::uint32_t mask = kFullMask) {
    std::array<std::uint64_t, kWarpSize> addrs{};
    std::array<std::uint32_t, kWarpSize> sizes{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        SPADEN_ASSERT(idx[l] < dst.size, "atomic lane %d out of bounds: %u >= %zu", lane,
                      idx[l], dst.size);
        std::atomic_ref<float> cell(dst.data[idx[l]]);
        float expected = cell.load(std::memory_order_relaxed);
        while (!cell.compare_exchange_weak(expected, expected + v[l],
                                           std::memory_order_relaxed)) {
        }
        addrs[l] = dst.addr_of(idx[l]);
        sizes[l] = sizeof(float);
      }
    }
    mc_->access_atomic(addrs, sizes, mask);
    if (san_ != nullptr) {
      record_lanes(SanAccess::Atomic, addrs, sizes, mask);
    }
    maybe_yield();
  }

  /// Per-lane atomic exchange (atomicExch): lane i stores v[i] to element
  /// idx[i] and returns the value it replaced; inactive lanes return T{}.
  /// Charged and recorded like atomic_add. Acquire-release on the host, so
  /// a warp that exchanges a value back out sees what the warp that
  /// exchanged it in wrote before.
  template <typename T>
  Lanes<T> atomic_exch(DSpan<T> dst, const Lanes<std::uint32_t>& idx, const Lanes<T>& v,
                       std::uint32_t mask = kFullMask) {
    std::array<std::uint64_t, kWarpSize> addrs{};
    std::array<std::uint32_t, kWarpSize> sizes{};
    Lanes<T> old{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        SPADEN_ASSERT(idx[l] < dst.size, "atomic lane %d out of bounds: %u >= %zu", lane,
                      idx[l], dst.size);
        old[l] = std::atomic_ref<T>(dst.data[idx[l]]).exchange(v[l], std::memory_order_acq_rel);
        addrs[l] = dst.addr_of(idx[l]);
        sizes[l] = sizeof(T);
      }
    }
    mc_->access_atomic(addrs, sizes, mask);
    if (san_ != nullptr) {
      record_lanes(SanAccess::Atomic, addrs, sizes, mask);
    }
    maybe_yield();
    return old;
  }

  /// Single atomic fetch-add issued by one lane (dynamic work distribution:
  /// LightSpMV's global row counter; the ticket of a segment hand-off).
  /// Acquire-release, like atomic_exch.
  std::uint32_t atomic_fetch_add(DSpan<std::uint32_t> counter, std::size_t idx,
                                 std::uint32_t delta) {
    SPADEN_ASSERT(idx < counter.size, "counter index out of bounds");
    const std::uint32_t old = std::atomic_ref<std::uint32_t>(counter.data[idx])
                                  .fetch_add(delta, std::memory_order_acq_rel);
    std::array<std::uint64_t, kWarpSize> addrs{};
    std::array<std::uint32_t, kWarpSize> sizes{};
    addrs[0] = counter.addr_of(idx);
    sizes[0] = sizeof(std::uint32_t);
    mc_->access_atomic(addrs, sizes, 0x1u);
    if (san_ != nullptr) {
      san_->begin_instr(SanAccess::Atomic, 0x1u);
      san_->lane_access(0, addrs[0], sizes[0]);
    }
    maybe_yield();
    return old;
  }

  // ----- intra-warp communication ------------------------------------------

  /// __shfl_sync: every lane reads the register of lane `src[i]`.
  template <typename T>
  Lanes<T> shfl(const Lanes<T>& v, const Lanes<std::uint32_t>& src,
                std::uint32_t mask = kFullMask) {
    Lanes<T> out{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        SPADEN_ASSERT(src[l] < kWarpSize, "shuffle source lane out of range");
        out[l] = v[src[l]];
      }
    }
    stats_->shuffle_lane_ops += static_cast<std::uint64_t>(std::popcount(mask));
    charge(OpClass::Shuffle, static_cast<std::uint64_t>(std::popcount(mask)));
    if (san_ != nullptr) {
      san_->note_op_mask(mask);
      for (int lane = 0; lane < kWarpSize; ++lane) {
        const auto l = static_cast<std::size_t>(lane);
        if (((mask >> lane) & 1u) && ((mask >> src[l]) & 1u) == 0) {
          san_->divergent_shuffle(mask, lane, src[l]);
        }
      }
    }
    return out;
  }

  /// __shfl_down_sync with the given delta.
  template <typename T>
  Lanes<T> shfl_down(const Lanes<T>& v, unsigned delta, std::uint32_t mask = kFullMask) {
    Lanes<std::uint32_t> src;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      const unsigned s = static_cast<unsigned>(lane) + delta;
      src[l] = s < kWarpSize ? s : static_cast<std::uint32_t>(lane);
    }
    return shfl(v, src, mask);
  }

  /// Butterfly sum reduction over the active lanes; result valid in every
  /// lane (5 shuffle+add rounds, like __reduce_add_sync).
  float reduce_add(Lanes<float> v, std::uint32_t mask = kFullMask);

  /// __ballot_sync.
  std::uint32_t ballot(const Lanes<bool>& pred, std::uint32_t mask = kFullMask) {
    std::uint32_t out = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (((mask >> lane) & 1u) && pred[static_cast<std::size_t>(lane)]) {
        out |= 1u << lane;
      }
    }
    charge(OpClass::IntAlu, static_cast<std::uint64_t>(std::popcount(mask)));
    if (san_ != nullptr) {
      san_->note_op_mask(mask);
    }
    return out;
  }

  /// __syncwarp: converged-execution barrier over the lanes in `mask`. The
  /// lockstep model needs no synchronization, so this is free of modeled
  /// cost; under sancheck, sync-lint flags a mask that misses lanes active
  /// in the preceding warp op (lanes that would never arrive on hardware).
  void sync_warp(std::uint32_t mask = kFullMask) {
    if (san_ != nullptr) {
      san_->sync_warp(mask);
    }
  }

 private:
  /// Issue one gather/scatter-style warp memory instruction: classify its
  /// lane accesses, charge the per-lane address computation, record it for
  /// the sanitizer, then yield.
  void issue_lanes(SanAccess kind, const std::array<std::uint64_t, kWarpSize>& addrs,
                   const std::array<std::uint32_t, kWarpSize>& sizes, std::uint32_t mask) {
    mc_->access(addrs, sizes, mask, /*is_store=*/kind == SanAccess::Store);
    charge(OpClass::IntAlu, active_lanes(mask));  // address computation
    if (san_ != nullptr) {
      record_lanes(kind, addrs, sizes, mask);
    }
    maybe_yield();
  }

  /// Feed one warp memory instruction's active-lane ranges to the sanitizer.
  void record_lanes(SanAccess kind, const std::array<std::uint64_t, kWarpSize>& addrs,
                    const std::array<std::uint32_t, kWarpSize>& sizes, std::uint32_t mask) {
    san_->begin_instr(kind, mask);
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if ((mask >> lane) & 1u) {
        san_->lane_access(lane, addrs[l], sizes[l]);
      }
    }
  }

  /// Yield point: give the scheduler (when attached) the chance to switch
  /// to another resident warp. Called at the END of each memory operation.
  void maybe_yield() {
    if (sched_ != nullptr) {
      sched_yield_point(*sched_);
    }
  }

  MemoryController* mc_;
  KernelStats* stats_;
  SanShard* san_ = nullptr;
  ProfShard* prof_ = nullptr;
  WarpScheduler* sched_ = nullptr;
};

/// RAII range marker: pops on scope exit, so kernels with early returns
/// cannot leak a pushed range.
class ProfRange {
 public:
  ProfRange(WarpCtx& ctx, const char* name) : ctx_(ctx) { ctx_.range_push(name); }
  ProfRange(const ProfRange&) = delete;
  ProfRange& operator=(const ProfRange&) = delete;
  ~ProfRange() { ctx_.range_pop(); }

 private:
  WarpCtx& ctx_;
};

}  // namespace spaden::sim
