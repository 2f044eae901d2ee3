// Set-associative sector cache modeling the GPU L2.
//
// The L2 is shared by all SMs and is the unit at which DRAM traffic is
// decided: a sector access that hits stays on-chip; a miss costs one DRAM
// sector transfer. Capacity is the architectural differentiator between the
// two evaluated devices (L40: 96 MB, V100: 6 MB) and is what lets small
// dense-block matrices become compute-bound on L40 (paper §5.4).
//
// Replacement is exact LRU, kept as one 64-bit recency word per set: the
// word lists the set's way indices as 4-bit nibbles, most recent first, so
// the least recent way is always the last nibble. A fresh (or flushed) set
// lists its ways in descending index order, which makes never-filled ways
// the least recent ones in ascending index order — ways fill 0, 1, 2, ...
// exactly as under the per-way timestamp scheme this replaces ("first way
// with the minimum stamp"). A way costs 8.5 host bytes (an 8-byte tag plus
// its 4-bit share of the recency word) instead of 16, which is what keeps
// a 96 MB L40 L2 at 17 MiB of host memory.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spaden::sim {

class SectorCache {
 public:
  /// Most ways a set can have: the recency word holds 16 4-bit way indices.
  static constexpr int kMaxWays = 16;

  /// `capacity_bytes` is rounded down to a power-of-two set count; `ways`
  /// must be in [1, kMaxWays].
  SectorCache(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes = 32);

  /// Probe one sector-aligned address; inserts on miss. Returns true on hit.
  bool access(std::uint64_t sector_addr) { return access_line(sector_addr / sector_bytes_); }

  /// Probe by sector number (byte address / sector size). The memory
  /// controller classifies whole warp instructions in sector-id space, so
  /// this skips the byte-address round trip. A hit moves its way to the
  /// front of the set's recency word; a miss replaces the last (least
  /// recent) way and moves it to the front.
  bool access_line(std::uint64_t line) {
    const std::uint64_t set = line & set_mask_;
    const std::uint64_t base = set * static_cast<std::uint64_t>(ways_);
    const std::uint64_t* tags = tags_.data() + base;
    std::uint64_t& order = order_[set];
    const int ways = ways_;
    for (int w = 0; w < ways; ++w) {
      if (tags[w] == line) {
        order = promote(order, static_cast<std::uint64_t>(w));
        ++hits_;
        return true;
      }
    }
    const std::uint64_t victim = (order >> lru_shift_) & 0xF;
    tags_[base + victim] = line;
    order = ((order << 4) | victim) & order_mask_;
    ++misses_;
    return false;
  }

  /// Hint the host CPU to pull the set holding `line` into its cache. The
  /// classification loop in MemoryController::access knows every sector it
  /// will probe before the first probe, and on big-L2 devices the tag array
  /// (16 MB for an L40) misses the host cache on nearly every scattered
  /// probe — prefetching a few sectors ahead overlaps those misses. Pure
  /// hint: reads nothing, writes nothing, so hit/miss classification and
  /// LRU state are bit-identical with or without it. A 16-way set spans two
  /// 64-byte lines of tags; the recency word is prefetched with write intent
  /// because both the hit and the miss path store it.
  void prefetch_line(std::uint64_t line) const {
    const std::uint64_t set = line & set_mask_;
    const std::uint64_t* tags = tags_.data() + set * static_cast<std::uint64_t>(ways_);
    __builtin_prefetch(tags, 0);
    if (ways_ > 8) {
      __builtin_prefetch(tags + 8, 0);
    }
    __builtin_prefetch(order_.data() + set, 1);
  }

  /// Drop all cached state (used between unrelated experiments).
  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint32_t sector_bytes() const { return sector_bytes_; }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return num_sets_ * static_cast<std::uint64_t>(ways_) * sector_bytes_;
  }
  /// Host memory held by the model: the tag array plus the recency words.
  [[nodiscard]] std::size_t host_bytes() const {
    return (tags_.size() + order_.size()) * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  /// Move way `way` to the front of recency word `order`, shifting the
  /// nibbles that were more recent than it back by one. Branchless: the
  /// way's nibble position is the lowest zero nibble of order ^ way*0x11..1
  /// (the classic has-zero test; borrows only propagate above the first
  /// zero nibble, so the lowest flagged nibble is exact).
  static std::uint64_t promote(std::uint64_t order, std::uint64_t way) {
    constexpr std::uint64_t kOnes = 0x1111111111111111ull;
    const std::uint64_t x = order ^ (way * kOnes);
    const std::uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
    const int shift = std::countr_zero(zero) - 3;  // 4 * nibble position
    // Nibbles [0, position]: the ones before the way shift back, the way
    // itself lands in nibble 0. 16 << 60 wraps to 0, so `upto` is all ones
    // when the way was the last of 16.
    const std::uint64_t upto = (std::uint64_t{16} << shift) - 1;
    return (order & ~upto) | ((order << 4) & upto) | way;
  }

  std::uint32_t sector_bytes_;
  int ways_;
  int lru_shift_;               ///< bit offset of the least recent nibble
  std::uint64_t order_mask_;    ///< the ways_ nibbles a recency word uses
  std::uint64_t fresh_order_;   ///< recency word of an empty set
  std::uint64_t num_sets_;
  std::uint64_t set_mask_;
  std::vector<std::uint64_t> tags_;   ///< num_sets * ways
  std::vector<std::uint64_t> order_;  ///< one recency word per set
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace spaden::sim
