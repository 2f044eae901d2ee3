// Set-associative sector cache model (the simulated L1/L2).
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/cache.hpp"

namespace spaden::sim {
namespace {

TEST(SectorCache, FirstAccessMissesSecondHits) {
  SectorCache c(1024, 4);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(16));  // same 32 B sector
  EXPECT_FALSE(c.access(32));  // next sector
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(SectorCache, CapacityRoundedToPowerOfTwoSets) {
  SectorCache c(1000, 4);  // 1000/32/4 = 7.8 lines/way -> 4 sets
  EXPECT_EQ(c.capacity_bytes(), 4u * 4u * 32u);
}

TEST(SectorCache, LruEvictionWithinSet) {
  // 2 sets, 2 ways: addresses mapping to set 0 are sector ids 0, 2, 4, ...
  SectorCache c(2 * 2 * 32, 2);
  auto addr = [](std::uint64_t sector) { return sector * 32; };
  EXPECT_FALSE(c.access(addr(0)));
  EXPECT_FALSE(c.access(addr(2)));
  EXPECT_TRUE(c.access(addr(0)));   // refresh 0; LRU is now 2
  EXPECT_FALSE(c.access(addr(4)));  // evicts 2
  EXPECT_TRUE(c.access(addr(0)));   // 0 still resident
  EXPECT_FALSE(c.access(addr(2)));  // 2 was evicted
}

TEST(SectorCache, DistinctSetsDoNotInterfere) {
  SectorCache c(2 * 2 * 32, 2);
  auto addr = [](std::uint64_t sector) { return sector * 32; };
  // Fill set 0 with sectors 0, 2; set 1 with 1, 3 — all should coexist.
  for (std::uint64_t s : {0, 2, 1, 3}) {
    EXPECT_FALSE(c.access(addr(s)));
  }
  for (std::uint64_t s : {0, 2, 1, 3}) {
    EXPECT_TRUE(c.access(addr(s)));
  }
}

TEST(SectorCache, FlushDropsEverything) {
  SectorCache c(4096, 4);
  c.access(0);
  c.access(64);
  c.flush();
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(64));
}

TEST(SectorCache, WorkingSetLargerThanCapacityThrashes) {
  // Property: cycling a working set 2x the capacity with LRU never hits.
  SectorCache c(64 * 32, 4);
  const std::uint64_t sectors = 128;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t s = 0; s < sectors; ++s) {
      c.access(s * 32);
    }
  }
  EXPECT_EQ(c.hits(), 0u);
}

TEST(SectorCache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup) {
  SectorCache c(64 * 32, 4);
  for (std::uint64_t s = 0; s < 64; ++s) {
    c.access(s * 32);
  }
  const std::uint64_t misses_after_warmup = c.misses();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t s = 0; s < 64; ++s) {
      EXPECT_TRUE(c.access(s * 32));
    }
  }
  EXPECT_EQ(c.misses(), misses_after_warmup);
}

TEST(SectorCache, RejectsInvalidConfig) {
  EXPECT_THROW(SectorCache(1024, 0), spaden::Error);
  EXPECT_THROW(SectorCache(1024, 128), spaden::Error);
  EXPECT_THROW(SectorCache(1024, 4, 33), spaden::Error);
}

TEST(SectorCache, WaysCappedAtRecencyWordWidth) {
  // 16 4-bit way indices fill the 64-bit recency word; one more way must
  // fail by name instead of silently aliasing nibbles.
  EXPECT_NO_THROW(SectorCache(1 << 16, SectorCache::kMaxWays));
  EXPECT_THROW(SectorCache(1 << 16, SectorCache::kMaxWays + 1), spaden::Error);
}

TEST(SectorCache, HostBytesAreTagsPlusOneRecencyWordPerSet) {
  SectorCache c(64 * 16 * 32, 16);  // 64 sets x 16 ways
  EXPECT_EQ(c.host_bytes(), 64u * 16u * 8u + 64u * 8u);
}

// ----- recency word vs the 64-bit-stamp reference -----------------------------

/// The replacement rule SectorCache used before the recency word: one
/// 64-bit LRU stamp per way from a cache-global clock, victim = the first
/// way with the minimum stamp. Kept only as the oracle the compact cache is
/// compared against, access by access.
class StampCache {
 public:
  StampCache(std::uint64_t capacity_bytes, int ways) : ways_(static_cast<std::uint64_t>(ways)) {
    const std::uint64_t lines = capacity_bytes / 32 / ways_;
    sets_ = std::bit_floor(lines == 0 ? 1 : lines);
    tags_.assign(sets_ * ways_, kInvalid);
    stamps_.assign(sets_ * ways_, 0);
  }

  bool access_line(std::uint64_t line) {
    const std::uint64_t base = (line & (sets_ - 1)) * ways_;
    ++clock_;
    for (std::uint64_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == line) {
        stamps_[base + w] = clock_;
        return true;
      }
    }
    std::uint64_t victim = 0;
    for (std::uint64_t w = 1; w < ways_; ++w) {
      if (stamps_[base + w] < stamps_[base + victim]) {
        victim = w;
      }
    }
    tags_[base + victim] = line;
    stamps_[base + victim] = clock_;
    return false;
  }

  void flush() {
    tags_.assign(tags_.size(), kInvalid);
    stamps_.assign(stamps_.size(), 0);
    clock_ = 0;
  }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  std::uint64_t ways_;
  std::uint64_t sets_ = 1;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
};

enum class Stream { HitHeavy, MissHeavy, FlushInterleaved };

/// Drive both caches with one seeded stream; returns the hit fraction after
/// asserting that every access classified identically.
double compare_with_stamps(int ways, Stream kind, std::uint64_t seed) {
  constexpr std::uint64_t kSets = 64;
  const std::uint64_t capacity_lines = kSets * static_cast<std::uint64_t>(ways);
  SectorCache compact(capacity_lines * 32, ways);
  StampCache reference(capacity_lines * 32, ways);
  Rng rng(seed);
  constexpr int kAccesses = 60'000;
  std::uint64_t hits = 0;
  for (int i = 0; i < kAccesses; ++i) {
    std::uint64_t line = 0;
    if (kind == Stream::MissHeavy) {
      line = rng.next_below(8 * capacity_lines);
    } else {
      // 90% from a hot range of half the capacity, 10% from a cold range
      // 16x the capacity: mostly hits, with enough evictions to reorder
      // every set's recency over and over.
      line = rng.next_below(10) < 9 ? rng.next_below(capacity_lines / 2 + 1)
                                    : rng.next_below(16 * capacity_lines);
    }
    if (kind == Stream::FlushInterleaved && i % 997 == 996) {
      compact.flush();
      reference.flush();
    }
    const bool hit = compact.access_line(line);
    if (hit != reference.access_line(line)) {
      ADD_FAILURE() << "ways " << ways << ": access " << i << " (line " << line
                    << ") classified differently";
      return 0;
    }
    hits += hit ? 1 : 0;
  }
  EXPECT_EQ(compact.hits(), hits);
  EXPECT_EQ(compact.misses(), kAccesses - hits);
  return static_cast<double>(hits) / kAccesses;
}

class RecencyWordTest : public ::testing::TestWithParam<int> {};

TEST_P(RecencyWordTest, MatchesStampLruOnHitHeavyStream) {
  EXPECT_GT(compare_with_stamps(GetParam(), Stream::HitHeavy, 11), 0.6);
}

TEST_P(RecencyWordTest, MatchesStampLruOnMissHeavyStream) {
  EXPECT_LT(compare_with_stamps(GetParam(), Stream::MissHeavy, 12), 0.2);
}

TEST_P(RecencyWordTest, MatchesStampLruAcrossFlushes) {
  EXPECT_GT(compare_with_stamps(GetParam(), Stream::FlushInterleaved, 13), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Ways, RecencyWordTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace spaden::sim
