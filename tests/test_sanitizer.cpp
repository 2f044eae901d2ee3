// spaden-sancheck: each detector fires on a deliberately buggy kernel and
// stays silent on correct code; reports are deterministic across thread
// counts; disabled mode records nothing.
#include <gtest/gtest.h>

#include <string>

#include "core/spaden.hpp"
#include "gpusim/device.hpp"
#include "matrix/generate.hpp"

namespace spaden::sim {
namespace {

Device make_device(bool sanitize = true, int threads = 1) {
  Device device(l40());
  device.set_sim_threads(threads);
  device.set_sanitize(sanitize);
  return device;
}

bool any_message_contains(const SanitizerReport& report, const std::string& needle) {
  for (const SanDiag& d : report.diagnostics) {
    if (d.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ----- clean kernels stay clean ---------------------------------------------

TEST(Sancheck, WellFormedKernelIsClean) {
  Device device = make_device();
  auto src = device.memory().upload(std::vector<float>(256, 1.0f), "src");
  auto dst = device.memory().alloc<float>(256, "dst");
  const auto result = device.launch("copy", 8, [&](WarpCtx& ctx, std::uint64_t w) {
    Lanes<std::uint32_t> idx;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      idx[static_cast<std::size_t>(lane)] =
          static_cast<std::uint32_t>(w) * kWarpSize + static_cast<std::uint32_t>(lane);
    }
    ctx.scatter(dst.span(), idx, ctx.gather(src.cspan(), idx));
  });
  EXPECT_TRUE(result.sanitizer.enabled);
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

TEST(Sancheck, AtomicAccumulationIsNotARace) {
  Device device = make_device();
  auto y = device.memory().alloc<float>(4, "y");
  const auto result = device.launch("atomics", 4, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.atomic_add(y.span(), make_lanes<std::uint32_t>(0), make_lanes(1.0f));
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
  EXPECT_EQ(y.host()[0], 4.0f * kWarpSize);
}

TEST(Sancheck, AllShippedKernelsCleanThroughEngine) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(600, 600, 24000, 11));
  for (const kern::Method m : kern::all_methods()) {
    EngineOptions options;
    options.method = m;
    options.sanitize = true;
    SpmvEngine engine(a, options);
    std::vector<float> x(a.ncols, 0.5f);
    std::vector<float> y;
    const SpmvResult r = engine.multiply(x, y);
    EXPECT_TRUE(r.sanitizer.enabled);
    EXPECT_TRUE(r.sanitizer.clean())
        << std::string(kern::method_name(m)) << ":\n" << r.sanitizer.summary();
  }
}

// ----- memcheck -------------------------------------------------------------

TEST(Sancheck, OutOfBoundsGatherLandsInRedzone) {
  Device device = make_device();
  auto buf = device.memory().upload(std::vector<float>(64, 1.0f), "payload");
  // Host storage stays in bounds; the device addresses are shifted so the
  // tail lanes read past the allocation into the 256 B alignment redzone.
  DSpan<const float> skewed{buf.host().data(), buf.device_addr() + 128, 64};
  const auto result = device.launch("oob_gather", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<std::uint32_t> idx;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      idx[static_cast<std::size_t>(lane)] = 32 + static_cast<std::uint32_t>(lane);
    }
    (void)ctx.gather(skewed, idx);
  });
  EXPECT_GT(result.sanitizer.count(SanKind::OobAccess), 0u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "redzone"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "'payload'"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "oob_gather"));
}

TEST(Sancheck, UseAfterFreeIsDiagnosed) {
  Device device = make_device();
  std::uint64_t dead_addr = 0;
  {
    auto victim = device.memory().alloc<float>(32, "victim");
    dead_addr = victim.device_addr();
  }  // ~Buffer models cudaFree: registry entry goes dead
  std::vector<float> backing(32, 0.0f);
  DSpan<const float> stale{backing.data(), dead_addr, 32};
  const auto result = device.launch("use_after_free", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.scalar_load(stale, 0);
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::OobAccess), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "freed"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "'victim'"));
}

TEST(Sancheck, UninitializedReadFires) {
  Device device = make_device();
  auto raw = device.memory().alloc_undef<float>(64, "scratch");
  const auto result = device.launch("uninit_read", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.scalar_load(raw.cspan(), 3);
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::UninitRead), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "'scratch'"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "uninitialized"));
}

TEST(Sancheck, OwnStoreDefinesBytesButZeroFillAllocIsAlwaysDefined) {
  Device device = make_device();
  auto raw = device.memory().alloc_undef<float>(64, "scratch");
  auto zeroed = device.memory().alloc<float>(64, "zeroed");
  const auto result = device.launch("store_then_load", 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.scalar_store(raw.span(), 5, 2.0f);
    (void)ctx.scalar_load(raw.cspan(), 5);   // defined by the store above
    (void)ctx.scalar_load(zeroed.cspan(), 9);  // alloc() zero fill counts
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

TEST(Sancheck, StoresCommitShadowStateForLaterLaunches) {
  Device device = make_device();
  auto raw = device.memory().alloc_undef<float>(64, "scratch");
  (void)device.launch("producer", 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.scalar_store(raw.span(), 7, 1.0f);
  });
  const auto result = device.launch("consumer", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.scalar_load(raw.cspan(), 7);
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

TEST(Sancheck, HostWriteMarksAllocationDefined) {
  Device device = make_device();
  auto raw = device.memory().alloc_undef<float>(8, "scratch");
  raw.host()[0] = 1.0f;  // models cudaMemcpy H2D
  const auto result = device.launch("after_h2d", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.scalar_load(raw.cspan(), 0);
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

// ----- racecheck ------------------------------------------------------------

TEST(Sancheck, InterWarpNonAtomicStoreRace) {
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  const auto result = device.launch("racy_store", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    ctx.scalar_store(y.span(), 0, static_cast<float>(w));
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "warps 0 and 1"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "'y'"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "racy_store"));
}

TEST(Sancheck, StoreRacingAnotherWarpsLoad) {
  Device device = make_device();
  auto y = device.memory().upload(std::vector<float>(8, 1.0f), "y");
  const auto result = device.launch("store_vs_load", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      ctx.scalar_store(y.span(), 2, 9.0f);
    } else {
      (void)ctx.scalar_load(y.cspan(), 2);
    }
  });
  ASSERT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
  // The witness pair names both instructions: the store in warp 0 and the
  // load in warp 1, with per-warp op ordinals and lanes.
  EXPECT_TRUE(any_message_contains(result.sanitizer, "warps 0 and 1"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "plain store by warp 0 (op 0"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "plain load by warp 1 (op 0"));
  const SanDiag& d = result.sanitizer.diagnostics.front();
  EXPECT_EQ(d.warp, 0u);
  EXPECT_EQ(d.warp2, 1u);
  EXPECT_NE(d.warp2, kSanNoWarp);
}

TEST(Sancheck, StoreRacingAnotherWarpsAtomic) {
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  const auto result = device.launch("store_vs_atomic", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      ctx.scalar_store(y.span(), 1, 5.0f);
    } else {
      ctx.atomic_add(y.span(), make_lanes<std::uint32_t>(1), make_lanes(1.0f), 0x1u);
    }
  });
  ASSERT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "plain store by warp 0"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "atomic by warp 1"));
}

TEST(Sancheck, AtomicStoreRacingPlainLoad) {
  // The pre-HB heuristic only flagged plain-store/atomic mixes; an atomic
  // *writer* racing a plain *reader* (no plain store anywhere) slipped
  // through entirely. FastTrack treats the atomic as a write: unordered
  // plain load of the same element is a race.
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  const auto result = device.launch("atomic_vs_load", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      ctx.atomic_add(y.span(), make_lanes<std::uint32_t>(3), make_lanes(1.0f), 0x1u);
    } else {
      (void)ctx.scalar_load(y.cspan(), 3);
    }
  });
  ASSERT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "atomic by warp 0"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "plain load by warp 1"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "'y'"));
  const SanDiag& d = result.sanitizer.diagnostics.front();
  EXPECT_EQ(d.warp, 0u);
  EXPECT_EQ(d.warp2, 1u);
}

TEST(Sancheck, WriteAfterReadAcrossWarps) {
  // Reader in a lower warp, writer in a higher one: the canonical schedule
  // replays the load first, so this exercises the read-shadow (rather than
  // the write-shadow) side of the detector.
  Device device = make_device();
  auto y = device.memory().upload(std::vector<float>(8, 1.0f), "y");
  const auto result = device.launch("load_then_store", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      (void)ctx.scalar_load(y.cspan(), 4);
    } else {
      ctx.scalar_store(y.span(), 4, 2.0f);
    }
  });
  ASSERT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "plain load by warp 0"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "plain store by warp 1"));
}

TEST(Sancheck, AtomicHandoffIsOrderedByReleaseAcquire) {
  // The flag pattern: warp 0 publishes data then touches an atomic flag;
  // warp 1 touches the same flag, then reads the data. The same-address
  // atomic pair forms a release/acquire happens-before edge, so the plain
  // store and plain load are ordered — not a race. (The old heuristic
  // flagged exactly this as store-racing-atomic.)
  Device device = make_device();
  auto data = device.memory().alloc<float>(8, "data");
  auto flag = device.memory().alloc<float>(1, "flag");
  const auto result = device.launch("handoff", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      ctx.scalar_store(data.span(), 0, 7.0f);
      ctx.atomic_add(flag.span(), make_lanes<std::uint32_t>(0), make_lanes(1.0f), 0x1u);
    } else {
      ctx.atomic_add(flag.span(), make_lanes<std::uint32_t>(0), make_lanes(1.0f), 0x1u);
      (void)ctx.scalar_load(data.cspan(), 0);
    }
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

TEST(Sancheck, UnrelatedAtomicDoesNotHideARace) {
  // Same shape as the handoff, but the two warps use *different* flag
  // elements: no release/acquire chain connects them, so the data race is
  // real and must be reported even though both warps perform atomics.
  Device device = make_device();
  auto data = device.memory().alloc<float>(8, "data");
  auto flag = device.memory().alloc<float>(2, "flag");
  const auto result = device.launch("fake_handoff", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      ctx.scalar_store(data.span(), 0, 7.0f);
      ctx.atomic_add(flag.span(), make_lanes<std::uint32_t>(0), make_lanes(1.0f), 0x1u);
    } else {
      ctx.atomic_add(flag.span(), make_lanes<std::uint32_t>(1), make_lanes(1.0f), 0x1u);
      (void)ctx.scalar_load(data.cspan(), 0);
    }
  });
  ASSERT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "'data'"));
  EXPECT_TRUE(any_message_contains(result.sanitizer, "no happens-before edge"));
}

TEST(Sancheck, LaunchBoundaryOrdersAccesses) {
  // A kernel launch is a global happens-before edge: producer/consumer
  // pairs split across launches never race, whatever the warp ids.
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  (void)device.launch("producer", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    ctx.scalar_store(y.span(), w, static_cast<float>(w));
  });
  (void)device.launch("consumer", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    (void)ctx.scalar_load(y.cspan(), 1 - w);  // cross-warp relative to producer
  });
  EXPECT_TRUE(device.sanitizer_log().clean()) << device.sanitizer_log().summary();
}

TEST(Sancheck, SyncWarpDoesNotOrderAcrossWarps) {
  // sync_warp is an intra-warp barrier (__syncwarp), not a grid barrier: a
  // race between two warps is still a race when both sides "synchronize".
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  const auto result = device.launch("false_fence", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    if (w == 0) {
      ctx.scalar_store(y.span(), 0, 1.0f);
      ctx.sync_warp(kFullMask);
    } else {
      ctx.sync_warp(kFullMask);
      (void)ctx.scalar_load(y.cspan(), 0);
    }
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::InterWarpRace), 1u);
}

TEST(Sancheck, DisjointWarpOutputsDoNotRace) {
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  const auto result = device.launch("disjoint", 2, [&](WarpCtx& ctx, std::uint64_t w) {
    ctx.scalar_store(y.span(), w, static_cast<float>(w));
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

TEST(Sancheck, DivergentWawWithinOneScatter) {
  Device device = make_device();
  auto y = device.memory().alloc<float>(64, "y");
  const auto result = device.launch("dup_scatter", 1, [&](WarpCtx& ctx, std::uint64_t) {
    Lanes<std::uint32_t> idx = make_lanes<std::uint32_t>(0);
    idx[1] = 0;  // lanes 0 and 1 both write element 0
    ctx.scatter(y.span(), idx, make_lanes(1.0f), 0x3u);
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::DivergentWaw), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "lanes 0 and 1"));
}

TEST(Sancheck, RaceReportDeterministicAcrossThreadCounts) {
  SanitizerReport reports[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Device device = make_device(true, thread_counts[i]);
    auto y = device.memory().alloc<float>(16, "y");
    const auto result = device.launch("racy_store", 8, [&](WarpCtx& ctx, std::uint64_t w) {
      ctx.scalar_store(y.span(), w % 4, static_cast<float>(w));
    });
    reports[i] = result.sanitizer;
  }
  EXPECT_EQ(reports[0].counts, reports[1].counts);
  ASSERT_EQ(reports[0].diagnostics.size(), reports[1].diagnostics.size());
  for (std::size_t i = 0; i < reports[0].diagnostics.size(); ++i) {
    EXPECT_EQ(reports[0].diagnostics[i].message, reports[1].diagnostics[i].message);
  }
}

TEST(Sancheck, RaceReportDeterministicAcrossSchedPolicies) {
  // The detector replays the canonical warp-major schedule, so the report is
  // a pure function of the program — byte-identical under every scheduler.
  std::vector<SanitizerReport> reports;
  for (const char* policy : {"serial", "rr"}) {
    Device device = make_device(true, 4);
    device.set_sched(parse_sched(policy, "test"));
    auto y = device.memory().alloc<float>(16, "y");
    const auto result = device.launch("racy_store", 8, [&](WarpCtx& ctx, std::uint64_t w) {
      ctx.scalar_store(y.span(), w % 4, static_cast<float>(w));
    });
    reports.push_back(result.sanitizer);
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[0].counts, reports[i].counts);
    ASSERT_EQ(reports[0].diagnostics.size(), reports[i].diagnostics.size());
    for (std::size_t j = 0; j < reports[0].diagnostics.size(); ++j) {
      EXPECT_EQ(reports[0].diagnostics[j].message, reports[i].diagnostics[j].message);
    }
  }
}

TEST(Sancheck, FuzzShippedKernelsCleanUnderEverySchedPolicy) {
  // Seeded sweep: every kernel under every scheduling policy must come back
  // with zero findings. A failure here is either a real kernel bug or a
  // schedule-dependency in the detector — both are release blockers.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(400, 400, 9000, 23));
  for (const char* policy : {"serial", "rr"}) {
    for (const kern::Method m : kern::all_methods()) {
      EngineOptions options;
      options.method = m;
      options.sanitize = true;
      options.sched = parse_sched(policy, "test");
      SpmvEngine engine(a, options);
      std::vector<float> x(a.ncols, 0.5f);
      std::vector<float> y;
      const SpmvResult r = engine.multiply(x, y);
      EXPECT_TRUE(r.sanitizer.enabled);
      EXPECT_TRUE(r.sanitizer.clean()) << policy << " / "
                                       << std::string(kern::method_name(m)) << ":\n"
                                       << r.sanitizer.summary();
    }
  }
}

// ----- sync-lint ------------------------------------------------------------

TEST(Sancheck, DivergentShuffleReadsInactiveLane) {
  Device device = make_device();
  const auto result = device.launch("bad_shfl", 1, [&](WarpCtx& ctx, std::uint64_t) {
    // Lane 0 active, reads lane 1 which the mask excludes (undefined in CUDA).
    (void)ctx.shfl(make_lanes(1.0f), make_lanes<std::uint32_t>(1), 0x1u);
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::DivergentShuffle), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "lane 0 reads lane 1"));
}

TEST(Sancheck, SubWarpShuffleWithinMaskIsClean) {
  Device device = make_device();
  const auto result = device.launch("sub_warp", 1, [&](WarpCtx& ctx, std::uint64_t) {
    // 16-lane sub-warp exchanging within itself, like csr_vector's reduction.
    Lanes<std::uint32_t> src;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      src[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(lane ^ 1) & 15u;
    }
    (void)ctx.shfl(make_lanes(1.0f), src, 0xFFFFu);
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

TEST(Sancheck, BarrierMaskMissingActiveLanes) {
  Device device = make_device();
  const auto result = device.launch("bad_sync", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.ballot(make_lanes(true), kFullMask);  // all 32 lanes active...
    ctx.sync_warp(0x0000FFFFu);                     // ...but only 16 arrive
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::BarrierMismatch), 1u);
  EXPECT_TRUE(any_message_contains(result.sanitizer, "sync_warp(0x0000ffff)"));
}

TEST(Sancheck, MatchingBarrierIsClean) {
  Device device = make_device();
  const auto result = device.launch("good_sync", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.ballot(make_lanes(true), 0xFFFFu);
    ctx.sync_warp(0xFFFFu);   // exactly the active lanes
    ctx.sync_warp(kFullMask);  // a wider barrier is fine too
  });
  EXPECT_TRUE(result.sanitizer.clean()) << result.sanitizer.summary();
}

// ----- plumbing -------------------------------------------------------------

TEST(Sancheck, DisabledModeRecordsNothing) {
  Device device = make_device(/*sanitize=*/false);
  auto y = device.memory().alloc<float>(8, "y");
  const auto result = device.launch("racy_store", 2, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.scalar_store(y.span(), 0, 1.0f);  // would race under sancheck
  });
  EXPECT_FALSE(result.sanitizer.enabled);
  EXPECT_EQ(result.sanitizer.total(), 0u);
  EXPECT_FALSE(device.sanitizer_log().enabled);
}

TEST(Sancheck, SanitizerDoesNotChangeModeledTime) {
  auto timed_copy = [](bool sanitize) {
    Device device = make_device(sanitize);
    auto src = device.memory().upload(std::vector<float>(1024, 1.0f), "src");
    auto dst = device.memory().alloc<float>(1024, "dst");
    const auto result = device.launch("copy", 32, [&](WarpCtx& ctx, std::uint64_t w) {
      Lanes<std::uint32_t> idx;
      for (int lane = 0; lane < kWarpSize; ++lane) {
        idx[static_cast<std::size_t>(lane)] =
            static_cast<std::uint32_t>(w) * kWarpSize + static_cast<std::uint32_t>(lane);
      }
      ctx.scatter(dst.span(), idx, ctx.gather(src.cspan(), idx));
    });
    return result;
  };
  const auto plain = timed_copy(false);
  const auto checked = timed_copy(true);
  EXPECT_EQ(plain.seconds(), checked.seconds());
  EXPECT_EQ(plain.stats.dram_bytes, checked.stats.dram_bytes);
  EXPECT_EQ(plain.stats.cuda_ops, checked.stats.cuda_ops);
}

TEST(Sancheck, DeviceLogAccumulatesAcrossLaunches) {
  Device device = make_device();
  auto y = device.memory().alloc<float>(8, "y");
  for (int i = 0; i < 2; ++i) {
    (void)device.launch("racy_store", 2, [&](WarpCtx& ctx, std::uint64_t w) {
      ctx.scalar_store(y.span(), 0, static_cast<float>(w));
    });
  }
  EXPECT_EQ(device.sanitizer_log().count(SanKind::InterWarpRace), 2u);
  device.clear_sanitizer_log();
  EXPECT_TRUE(device.sanitizer_log().clean());
}

TEST(Sancheck, SummaryListsEveryDetector) {
  Device device = make_device();
  const auto result = device.launch("noop", 1, [&](WarpCtx&, std::uint64_t) {});
  const std::string s = result.sanitizer.summary();
  for (std::size_t i = 0; i < kSanKindCount; ++i) {
    EXPECT_NE(s.find(san_kind_name(static_cast<SanKind>(i))), std::string::npos) << s;
  }
}

TEST(Sancheck, RegistryDescribesAddresses) {
  DeviceMemory mem;
  auto a = mem.upload(std::vector<float>(16, 1.0f), "a");
  const AllocRegistry& reg = mem.registry();
  EXPECT_NE(reg.describe(a.device_addr() + 4).find("'a'"), std::string::npos);
  EXPECT_NE(reg.describe(a.device_addr() + 100).find("redzone"), std::string::npos);
  EXPECT_NE(reg.describe(a.device_addr() - 1).find("below device heap"), std::string::npos);
  EXPECT_EQ(reg.live_allocations(), 1u);
}

}  // namespace
}  // namespace spaden::sim
