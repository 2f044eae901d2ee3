// Memory controller: coalesces the per-lane addresses of one warp memory
// instruction into unique 32-byte sectors, probes the L2 model, and charges
// the kernel's counters.
//
// This is where the paper's §5.3 story lives: a warp whose 32 lanes read 32
// consecutive floats touches 4 sectors (fully coalesced); a warp whose lanes
// each walk a private row (CSR Warp16) touches up to 32 sectors for the same
// 128 bytes of useful data, which is exactly why that variant is 23x slower.
#pragma once

#include <array>
#include <cstdint>

#include "gpusim/cache.hpp"
#include "gpusim/stats.hpp"

namespace spaden::sim {

class SharedL2;

/// Sector-id window classifying halo traffic for one shard of a device
/// group (gpusim/multidevice): sectors inside [lo, hi) belong to the x
/// vector; the sub-range [own_lo, own_hi) is the slice this device owns.
/// Accesses to x sectors outside the owned slice are remote — they count
/// into KernelStats::remote_sectors and gate the warp on the modeled halo
/// transfer (gpusim/sched).
struct RemoteWindow {
  std::uint64_t lo = 0;      ///< first x sector (inclusive)
  std::uint64_t hi = 0;      ///< one past the last x sector
  std::uint64_t own_lo = 0;  ///< first locally-owned x sector
  std::uint64_t own_hi = 0;  ///< one past the last locally-owned x sector

  [[nodiscard]] bool is_remote(std::uint64_t sector) const {
    return sector >= lo && sector < hi && (sector < own_lo || sector >= own_hi);
  }
};

class MemoryController {
 public:
  static constexpr int kWarpSize = 32;

  /// The L2 is exactly one of `l2` (a private cache: the flat L2 of a T=1
  /// device, or one virtual SM's capacity slice) and `shared` (the striped
  /// L2 all virtual SMs probe at T>1). Every cache must share the L1's
  /// sector size (it defines the sector-id space all classification below
  /// happens in).
  MemoryController(SectorCache* l1, SectorCache* l2, KernelStats* stats,
                   SharedL2* shared = nullptr);

  /// Classify accesses against a halo window (null = everything local, the
  /// single-device fast path — no extra work in the probe loops).
  void set_remote_window(const RemoteWindow* remote) { remote_ = remote; }

  /// One warp-level memory instruction. `addrs[i]` / `sizes[i]` describe lane
  /// i's access; lanes with a clear bit in `mask` are inactive.
  void access(const std::array<std::uint64_t, kWarpSize>& addrs,
              const std::array<std::uint32_t, kWarpSize>& sizes, std::uint32_t mask,
              bool is_store);

  /// A contiguous range accessed by the warp as a unit (e.g. a broadcast
  /// scalar load, or a wmma load of a full fragment row block).
  void access_range(std::uint64_t addr, std::uint64_t bytes, bool is_store);

  /// Atomic read-modify-write: lanes targeting the same sector serialize, so
  /// duplicate sectors are NOT merged; each active lane is charged one
  /// sector access plus the atomic lane-op.
  void access_atomic(const std::array<std::uint64_t, kWarpSize>& addrs,
                     const std::array<std::uint32_t, kWarpSize>& sizes, std::uint32_t mask);

 private:
  void touch_sector(std::uint64_t sector_addr, bool is_store);

  SectorCache* l1_;
  SectorCache* l2_;       ///< private L2, or null when shared_l2_ is the L2
  SharedL2* shared_l2_;   ///< striped shared L2, or null when l2_ is the L2
  const RemoteWindow* remote_ = nullptr;
  KernelStats* stats_;
  std::uint32_t sector_bytes_;
  std::uint32_t sector_shift_;
};

}  // namespace spaden::sim
