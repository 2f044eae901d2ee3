// Serial-anchor regression tests for the interpreter fast paths: the
// host-performance work (decoded-block caching, launch-to-launch arena
// pooling, batched sector classification, scheduled fibers) speeds up the
// *host* simulation only. Each optimization must leave modeled counters,
// numerics and profiles bit-identical to the slow path it replaced — these
// tests pin that contract per optimization in isolation (the batched
// classification has its own reference test in test_controller.cpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "gpusim/device.hpp"
#include "kernels/bitbsr_decode.hpp"
#include "kernels/kernel.hpp"
#include "matrix/coo.hpp"
#include "matrix/dataset.hpp"

namespace spaden::kern {
namespace {

struct RunOut {
  std::vector<float> y;
  sim::KernelStats stats;
};

RunOut run_spaden(const mat::Csr& a, int threads = 1,
                  sim::SchedConfig sched = sim::default_sched()) {
  sim::Device device(sim::l40());
  device.set_sim_threads(threads);
  device.set_shared_l2(false);  // slice L2: exact at any thread count
  device.set_sched(sched);
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  const sim::LaunchResult result = kernel->run(device, xb.cspan(), y.span());
  return {y.host(), result.stats};
}

TEST(DecodeCache, OnOffBitIdentical) {
  // The determinism contract of BitBsrDecodeCache, block by block: decoding
  // through the built cache yields the same lanes and block column, and
  // charges the same counters, as the per-bitmap decode (cache == nullptr).
  // 45 x 45 leaves partial edge blocks; the bottom block row holds entries
  // in block column 0 only, so its other edge blocks are empty. The format
  // never stores an empty block, but one is appended by hand at that row's
  // right edge (bitmap 0) to cover the decode whose gathers load nothing.
  mat::Coo coo;
  coo.nrows = 45;
  coo.ncols = 45;
  for (mat::Index r = 0; r < 45; ++r) {
    for (mat::Index c = 0; c < (r < 40 ? 45u : 8u); ++c) {
      if ((r * 7 + c * 3) % 5 < 3) {
        coo.row.push_back(r);
        coo.col.push_back(c);
        coo.val.push_back(0.25f + 0.125f * static_cast<float>((r + c) % 7));
      }
    }
  }
  mat::BitBsr bb = mat::BitBsr::from_csr(mat::Csr::from_coo(coo));
  ASSERT_EQ(bb.block_col.back(), 0u);
  bb.block_col.push_back(bb.bcols - 1);
  bb.bitmap.push_back(0);
  bb.val_offset.push_back(bb.val_offset.back());
  ++bb.block_row_ptr.back();
  BitBsrDecodeCache cache;
  cache.build(bb);

  struct Decode {
    std::vector<DecodedBlock> blocks;
    sim::KernelStats stats;
  };
  auto decode_all = [&](const BitBsrDecodeCache* c) {
    sim::Device device(sim::l40());
    device.set_sim_threads(1);
    const DeviceBitBsr dev = DeviceBitBsr::upload(device.memory(), bb);
    Decode out;
    out.blocks.resize(bb.num_blocks());
    out.stats = device
                    .launch("decode", bb.num_blocks(),
                            [&](sim::WarpCtx& ctx, std::uint64_t w) {
                              out.blocks[w] = decode_bitbsr_block(
                                  ctx, dev, static_cast<mat::Index>(w), c);
                            })
                    .stats;
    return out;
  };
  const Decode cached = decode_all(&cache);
  const Decode reference = decode_all(nullptr);
  EXPECT_EQ(cached.stats, reference.stats);
  ASSERT_EQ(cached.blocks.size(), reference.blocks.size());
  for (std::size_t b = 0; b < bb.num_blocks(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(cached.blocks[b].block_col, reference.blocks[b].block_col);
    EXPECT_EQ(cached.blocks[b].block_col, bb.block_col[b]);
    for (int lane = 0; lane < sim::kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      EXPECT_EQ(cached.blocks[b].a_val1[l].bits(), reference.blocks[b].a_val1[l].bits());
      EXPECT_EQ(cached.blocks[b].a_val2[l].bits(), reference.blocks[b].a_val2[l].bits());
    }
  }
  // The empty edge block decodes to all zeros.
  for (int lane = 0; lane < sim::kWarpSize; ++lane) {
    const auto l = static_cast<std::size_t>(lane);
    EXPECT_EQ(cached.blocks.back().a_val1[l].bits(), 0u);
    EXPECT_EQ(cached.blocks.back().a_val2[l].bits(), 0u);
  }
}

TEST(ArenaPooling, ReusedDeviceMatchesFreshDevice) {
  // launch() reuses per-warp scratch (scheduler fibers, sanitizer and
  // profiler shards) across launches on one Device. Reuse must not leak
  // state: after a cache flush, a second launch on a warmed-up Device is
  // bit-identical — counters, numerics and the profile report — to the
  // only launch of a fresh Device.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  auto profile_json = [](const sim::ProfileReport& p) {
    JsonWriter w;
    p.to_json(w);
    return w.take();
  };

  // Fresh device, single launch.
  sim::Device fresh(sim::l40());
  fresh.set_sim_threads(4);
  fresh.set_shared_l2(false);
  fresh.set_profile(true);
  auto fresh_kernel = make_kernel(Method::Spaden);
  fresh_kernel->prepare(fresh, a);
  std::vector<float> x(a.ncols, 0.5f);
  auto fresh_x = fresh.memory().upload(x);
  auto fresh_y = fresh.memory().alloc<float>(a.nrows);
  const sim::LaunchResult fresh_run =
      fresh_kernel->run(fresh, fresh_x.cspan(), fresh_y.span());

  // Reused device: warm-up launch populates the pools, flush resets the
  // cache models, then the second launch runs entirely on pooled scratch.
  sim::Device reused(sim::l40());
  reused.set_sim_threads(4);
  reused.set_shared_l2(false);
  reused.set_profile(true);
  auto reused_kernel = make_kernel(Method::Spaden);
  reused_kernel->prepare(reused, a);
  auto reused_x = reused.memory().upload(x);
  auto reused_y = reused.memory().alloc<float>(a.nrows);
  (void)reused_kernel->run(reused, reused_x.cspan(), reused_y.span());
  reused.flush_caches();
  const sim::LaunchResult second =
      reused_kernel->run(reused, reused_x.cspan(), reused_y.span());

  EXPECT_EQ(second.stats, fresh_run.stats);
  EXPECT_EQ(reused_y.host(), fresh_y.host());
  EXPECT_EQ(profile_json(second.profile), profile_json(fresh_run.profile));
}

TEST(CounterInvariance, WorkCountersStableAcrossThreadsAndPolicies) {
  // Partitioning warps over host threads must not change how much work is
  // simulated under the interleaving scheduler: per-warp work counters are
  // exact at any thread count (only latency-observation counters like
  // exposed_stall_cycles may legitimately depend on the partition).
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const sim::SchedConfig rr{sim::SchedPolicy::RoundRobin, 8};
  const sim::KernelStats serial = run_spaden(a, /*threads=*/1, rr).stats;
  const sim::KernelStats threaded = run_spaden(a, /*threads=*/4, rr).stats;
  EXPECT_EQ(serial.warps_launched, threaded.warps_launched);
  EXPECT_EQ(serial.mem_instructions, threaded.mem_instructions);
  EXPECT_EQ(serial.lane_loads, threaded.lane_loads);
  EXPECT_EQ(serial.lane_stores, threaded.lane_stores);
  EXPECT_EQ(serial.cuda_ops, threaded.cuda_ops);
  EXPECT_EQ(serial.tc_mma_m16n16k16, threaded.tc_mma_m16n16k16);
  EXPECT_EQ(serial.shuffle_lane_ops, threaded.shuffle_lane_ops);
  EXPECT_EQ(serial.wavefronts, threaded.wavefronts);
}

}  // namespace
}  // namespace spaden::kern
