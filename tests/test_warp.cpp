// Warp-synchronous execution context: lane memory ops, shuffles, ballots,
// reductions, and the charging discipline kernels rely on.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "gpusim/device.hpp"

namespace spaden::sim {
namespace {

DeviceSpec tiny_spec() {
  DeviceSpec d = l40();
  d.l2_capacity_bytes = 1 << 20;
  return d;
}

TEST(Warp, GatherScatterRoundTrip) {
  Device dev(tiny_spec());
  auto src = dev.memory().upload(std::vector<float>{0, 10, 20, 30, 40, 50, 60, 70});
  auto dst = dev.memory().alloc<float>(32);
  auto result = dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<std::uint32_t> idx{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      idx[lane] = lane % 8;
    }
    const auto vals = ctx.gather(src.cspan(), idx);
    ctx.scatter(dst.span(), lane_ids(), vals);
  });
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    EXPECT_EQ(dst.host()[lane], static_cast<float>(10 * (lane % 8)));
  }
  EXPECT_EQ(result.stats.lane_loads, 32u);
  EXPECT_EQ(result.stats.lane_stores, 32u);
}

TEST(Warp, MaskedGatherLeavesInactiveLanesZero) {
  Device dev(tiny_spec());
  auto src = dev.memory().upload(std::vector<float>(32, 5.0f));
  Lanes<float> observed{};
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    observed = ctx.gather(src.cspan(), lane_ids(), 0x0000FFFFu);
  });
  EXPECT_EQ(observed[0], 5.0f);
  EXPECT_EQ(observed[15], 5.0f);
  EXPECT_EQ(observed[16], 0.0f);
  EXPECT_EQ(observed[31], 0.0f);
}

TEST(Warp, GatherOutOfBoundsThrows) {
  Device dev(tiny_spec());
  auto src = dev.memory().upload(std::vector<float>(4, 1.0f));
  EXPECT_THROW(dev.launch("t", 1,
                          [&](WarpCtx& ctx, std::uint64_t) {
                            (void)ctx.gather(src.cspan(), make_lanes<std::uint32_t>(4));
                          }),
               spaden::Error);
}

TEST(Warp, ScalarLoadStoreBroadcast) {
  Device dev(tiny_spec());
  auto buf = dev.memory().upload(std::vector<std::uint32_t>{11, 22, 33});
  std::uint32_t seen = 0;
  auto result = dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    seen = ctx.scalar_load(buf.cspan(), 2);
    ctx.scalar_store(buf.span(), 0, seen + 1);
  });
  EXPECT_EQ(seen, 33u);
  EXPECT_EQ(buf.host()[0], 34u);
  EXPECT_EQ(result.stats.mem_instructions, 2u);
}

TEST(Warp, ReduceAddSumsActiveLanes) {
  Device dev(tiny_spec());
  float total = -1;
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<float> v{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      v[lane] = static_cast<float>(lane);
    }
    total = ctx.reduce_add(v);
  });
  EXPECT_EQ(total, 31.0f * 32.0f / 2.0f);
}

TEST(Warp, ReduceAddHonorsMask) {
  Device dev(tiny_spec());
  float total = -1;
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    total = ctx.reduce_add(make_lanes(1.0f), 0x000000FFu);
  });
  EXPECT_EQ(total, 8.0f);
}

TEST(Warp, ShflPermutesLanes) {
  Device dev(tiny_spec());
  Lanes<int> out{};
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<int> v{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      v[lane] = static_cast<int>(lane * 100);
    }
    Lanes<std::uint32_t> src{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      src[lane] = (lane + 1) % kWarpSize;  // rotate
    }
    out = ctx.shfl(v, src);
  });
  EXPECT_EQ(out[0], 100);
  EXPECT_EQ(out[31], 0);
}

TEST(Warp, ShflDownClampsAtWarpEnd) {
  Device dev(tiny_spec());
  Lanes<int> out{};
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<int> v{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      v[lane] = static_cast<int>(lane);
    }
    out = ctx.shfl_down(v, 4);
  });
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[27], 31);
  EXPECT_EQ(out[28], 28);  // no source: keeps own value (CUDA semantics)
}

TEST(Warp, BallotCollectsPredicates) {
  Device dev(tiny_spec());
  std::uint32_t mask = 0;
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<bool> pred{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      pred[lane] = lane % 2 == 0;
    }
    mask = ctx.ballot(pred);
  });
  EXPECT_EQ(mask, 0x55555555u);
}

TEST(Warp, AtomicAddAccumulatesCollidingLanes) {
  Device dev(tiny_spec());
  auto y = dev.memory().alloc<float>(4);
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.atomic_add(y.span(), make_lanes<std::uint32_t>(2), make_lanes(1.0f));
  });
  EXPECT_EQ(y.host()[2], 32.0f);
}

TEST(Warp, AtomicExchReturnsReplacedValues) {
  Device dev(tiny_spec());
  auto cells = dev.memory().upload(std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  Lanes<float> old{};
  dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<std::uint32_t> idx{};
    Lanes<float> v{};
    for (unsigned lane = 0; lane < 4; ++lane) {
      idx[lane] = 3 - lane;
      v[lane] = 10.0f + static_cast<float>(lane);
    }
    old = ctx.atomic_exch(cells.span(), idx, v, 0xFu);
  });
  EXPECT_EQ(old[0], 4.0f);
  EXPECT_EQ(old[3], 1.0f);
  EXPECT_EQ(old[4], 0.0f);  // inactive lanes return T{}
  EXPECT_EQ(cells.host(), (std::vector<float>{13.0f, 12.0f, 11.0f, 10.0f}));
}

TEST(Warp, AtomicExchOutOfBoundsThrows) {
  Device dev(tiny_spec());
  auto cells = dev.memory().alloc<std::uint32_t>(4);
  EXPECT_THROW(dev.launch("t", 1,
                          [&](WarpCtx& ctx, std::uint64_t) {
                            (void)ctx.atomic_exch(cells.span(), make_lanes<std::uint32_t>(4),
                                                  make_lanes<std::uint32_t>(1), 0x1u);
                          }),
               spaden::Error);
}

TEST(Warp, AtomicExchChargesAsAnAtomic) {
  // Every active lane is one atomic lane op and pays its own sector at the
  // L2 atomic unit, exactly like atomic_add on the same lanes.
  const auto stats_of = [](bool exch) {
    Device dev(tiny_spec());
    auto cells = dev.memory().alloc<float>(64);
    return dev
        .launch("t", 1,
                [&](WarpCtx& ctx, std::uint64_t) {
                  if (exch) {
                    (void)ctx.atomic_exch(cells.span(), lane_ids(), make_lanes(1.0f),
                                          0x0000'FFFFu);
                  } else {
                    ctx.atomic_add(cells.span(), lane_ids(), make_lanes(1.0f), 0x0000'FFFFu);
                  }
                })
        .stats;
  };
  const KernelStats exch = stats_of(true);
  EXPECT_EQ(exch.atomic_lane_ops, 16u);
  EXPECT_EQ(exch.mem_instructions, 1u);
  EXPECT_EQ(exch, stats_of(false));
}

TEST(Warp, AtomicExchIsRecordedAsAtomic) {
  // Two warps exchanging the same element never race (atomic vs atomic);
  // a plain store by one of them does, and racecheck names the other side
  // as an atomic.
  const auto run = [](bool plain_store) {
    Device dev(tiny_spec());
    dev.set_sim_threads(1);
    dev.set_sanitize(true);
    auto cell = dev.memory().alloc<float>(1, "cell");
    return dev
        .launch("t", 2,
                [&](WarpCtx& ctx, std::uint64_t w) {
                  if (w == 1 && plain_store) {
                    ctx.scalar_store(cell.span(), 0, 2.0f);
                  } else {
                    (void)ctx.atomic_exch(cell.span(), make_lanes<std::uint32_t>(0),
                                          make_lanes(1.0f), 0x1u);
                  }
                })
        .sanitizer;
  };
  const SanitizerReport clean = run(false);
  EXPECT_TRUE(clean.clean()) << clean.summary();
  const SanitizerReport racy = run(true);
  ASSERT_EQ(racy.count(SanKind::InterWarpRace), 1u);
  EXPECT_NE(racy.diagnostics.front().message.find("atomic by warp 0"), std::string::npos)
      << racy.summary();
}

TEST(Warp, AtomicFetchAddSerializesAcrossWarps) {
  Device dev(tiny_spec());
  dev.set_sim_threads(1);  // grid-order claims: a serial-launcher property
  auto counter = dev.memory().alloc<std::uint32_t>(1);
  std::vector<std::uint32_t> claims;
  dev.launch("t", 10, [&](WarpCtx& ctx, std::uint64_t) {
    claims.push_back(ctx.atomic_fetch_add(counter.span(), 0, 3));
  });
  ASSERT_EQ(claims.size(), 10u);
  for (std::size_t i = 0; i < claims.size(); ++i) {
    EXPECT_EQ(claims[i], 3 * i);
  }
}

TEST(Warp, ChargeAccumulatesWeightedOps) {
  Device dev(tiny_spec());
  auto result = dev.launch("t", 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.charge(OpClass::Fma, 32);
    ctx.charge(OpClass::Special, 2);  // weight 4
    ctx.charge(OpClass::RegMove, 100);  // weight 0: free
  });
  EXPECT_EQ(result.stats.cuda_ops, 32u + 8u);
}

TEST(Warp, LaunchRunsEveryWarpOnce) {
  Device dev(tiny_spec());
  dev.set_sim_threads(1);  // the host-side id log below is not thread-safe
  std::vector<std::uint64_t> ids;
  auto result = dev.launch("t", 17, [&](WarpCtx&, std::uint64_t w) { ids.push_back(w); });
  EXPECT_EQ(ids.size(), 17u);
  EXPECT_EQ(ids.front(), 0u);
  EXPECT_EQ(ids.back(), 16u);
  EXPECT_EQ(result.stats.warps_launched, 17u);
}

}  // namespace
}  // namespace spaden::sim
