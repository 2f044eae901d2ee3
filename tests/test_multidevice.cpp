// gpusim/multidevice + kernels/sharded: the device-group row-sharding layer.
//
// The anchor property under test: for every deterministic (row-owned)
// method, the concatenated multi-device y is bit-identical to the
// single-device y — sharding is a pure partition of the row space, every
// device holds the full x, and each row's dot product runs in the same
// arithmetic order. Plus the shard planner's edge cases (empty shards when
// devices outnumber 32-row blocks, single-row matrices, maximal halo), the
// modeled comm accounting, and the launch-keyed warp-weight fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/error.hpp"
#include "core/spaden.hpp"
#include "gpusim/multidevice.hpp"
#include "kernels/kernel.hpp"
#include "kernels/segments.hpp"
#include "kernels/sharded.hpp"
#include "matrix/generate.hpp"

namespace spaden {
namespace {

mat::Csr test_matrix(mat::Index nrows, mat::Index ncols, std::size_t nnz,
                     std::uint64_t seed) {
  return mat::Csr::from_coo(mat::random_uniform(nrows, ncols, nnz, seed));
}

/// A dense vertical stripe: every row reads columns across the full width,
/// so every shard's halo covers (nearly) all remote x sectors.
mat::Csr dense_stripe_matrix(mat::Index nrows, mat::Index ncols) {
  mat::Coo coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  for (mat::Index r = 0; r < nrows; ++r) {
    for (mat::Index c = r % 8; c < ncols; c += 8) {
      coo.row.push_back(r);
      coo.col.push_back(c);
      coo.val.push_back(0.25f + static_cast<float>(c % 5));
    }
  }
  return mat::Csr::from_coo(coo);
}

std::vector<float> run_single(kern::Method method, const mat::Csr& a,
                              const std::vector<float>& x) {
  sim::Device device(sim::l40());
  auto kernel = kern::make_kernel(method);
  kernel->prepare(device, a);
  auto x_buf = device.memory().upload(x, "x");
  auto y_buf = device.memory().alloc<float>(a.nrows, "y");
  (void)kernel->run(device, x_buf.cspan(), y_buf.span());
  return y_buf.host();
}

/// One sharded multiply: y, the group result and the runner's shard plan.
struct ShardedRun {
  std::vector<float> y;
  kern::GroupResult result;
  std::vector<kern::ShardInfo> shards;
};

ShardedRun run_group(kern::ShardedSpmv& sharded, const std::vector<float>& x) {
  ShardedRun run;
  sharded.upload({&x});
  run.result = sharded.launch(1);
  std::vector<std::vector<float>> ys;
  sharded.download(ys);
  run.y = std::move(ys.at(0));
  run.shards = sharded.shards();
  return run;
}

ShardedRun run_sharded(kern::Method method, const mat::Csr& a, const std::vector<float>& x,
                       int devices) {
  sim::DeviceGroup group(sim::l40(), devices);
  kern::ShardedSpmv sharded(group, method);
  sharded.prepare(a);
  return run_group(sharded, x);
}

std::vector<float> dense_x(mat::Index ncols) {
  std::vector<float> x(ncols);
  for (mat::Index c = 0; c < ncols; ++c) {
    x[c] = 0.5f + 0.001f * static_cast<float>(c % 997);
  }
  return x;
}

void expect_bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  }
}

// ---- shard planner -------------------------------------------------------

TEST(PlanShards, CoversAllRowsContiguouslyAndAligned) {
  const mat::Csr a = test_matrix(1000, 1000, 20000, 1);
  for (const int n : {1, 2, 3, 4, 7}) {
    const auto shards = kern::plan_shards(a, n);
    ASSERT_EQ(shards.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(shards.front().row_begin, 0u);
    EXPECT_EQ(shards.back().row_end, a.nrows);
    std::uint64_t nnz = 0;
    for (std::size_t d = 0; d < shards.size(); ++d) {
      if (d > 0) {
        EXPECT_EQ(shards[d].row_begin, shards[d - 1].row_end);
      }
      // Boundaries sit on 32-row multiples (except the final tail).
      if (shards[d].row_end != a.nrows) {
        EXPECT_EQ(shards[d].row_end % 32, 0u);
      }
      nnz += shards[d].nnz;
    }
    EXPECT_EQ(nnz, a.nnz());
  }
}

TEST(PlanShards, BalancesNnzNotRows) {
  // Rows 0..31 carry 100x the nnz of the rest: the first shard should stop
  // early instead of splitting rows evenly.
  mat::Coo coo;
  coo.nrows = 256;
  coo.ncols = 256;
  for (mat::Index r = 0; r < 32; ++r) {
    for (mat::Index c = 0; c < 100; ++c) {
      coo.row.push_back(r);
      coo.col.push_back((r + c) % 256);
      coo.val.push_back(1.0f);
    }
  }
  for (mat::Index r = 32; r < 256; ++r) {
    coo.row.push_back(r);
    coo.col.push_back(r);
    coo.val.push_back(1.0f);
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  const auto shards = kern::plan_shards(a, 2);
  EXPECT_EQ(shards[0].row_end, 32u);  // heavy block alone reaches half the nnz
  EXPECT_EQ(shards[1].row_begin, 32u);
  EXPECT_EQ(shards[1].row_end, 256u);
}

TEST(PlanShards, MoreDevicesThanBlockRowsLeavesEmptyShards) {
  // 40 rows = two 32-row blocks; with 4 devices at least two shards are
  // empty, and empty shards are well-formed (begin == end).
  const mat::Csr a = test_matrix(40, 64, 300, 2);
  const auto shards = kern::plan_shards(a, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards.back().row_end, a.nrows);
  int empty = 0;
  for (const auto& s : shards) {
    EXPECT_LE(s.row_begin, s.row_end);
    if (s.empty()) {
      ++empty;
      EXPECT_EQ(s.nnz, 0u);
    }
  }
  EXPECT_GE(empty, 2);
}

TEST(PlanShards, SingleRowMatrix) {
  const mat::Csr a = test_matrix(1, 128, 64, 3);
  const auto shards = kern::plan_shards(a, 4);
  std::uint64_t rows = 0;
  for (const auto& s : shards) {
    rows += s.rows();
  }
  EXPECT_EQ(rows, 1u);
  EXPECT_EQ(shards.back().row_end, 1u);
}

TEST(ExtractRows, MatchesSourceRows) {
  const mat::Csr a = test_matrix(100, 80, 1500, 4);
  const mat::Csr s = kern::extract_rows(a, 32, 64);
  ASSERT_EQ(s.nrows, 32u);
  EXPECT_EQ(s.ncols, a.ncols);
  s.validate();
  for (mat::Index r = 0; r < s.nrows; ++r) {
    ASSERT_EQ(s.row_nnz(r), a.row_nnz(32 + r));
    for (mat::Index k = 0; k < s.row_nnz(r); ++k) {
      EXPECT_EQ(s.col_idx[s.row_ptr[r] + k], a.col_idx[a.row_ptr[32 + r] + k]);
      EXPECT_EQ(s.val[s.row_ptr[r] + k], a.val[a.row_ptr[32 + r] + k]);
    }
  }
}

// ---- bit-identity across device counts -----------------------------------

TEST(ShardedSpmv, BitIdenticalToSingleDeviceAcrossMethods) {
  const mat::Csr a = test_matrix(1024, 1024, 40000, 5);
  const std::vector<float> x = dense_x(a.ncols);
  for (const kern::Method method :
       {kern::Method::CusparseCsr, kern::Method::LightSpmv, kern::Method::CsrAdaptive,
        kern::Method::CsrWarp16, kern::Method::Spaden, kern::Method::SpadenNoTc,
        kern::Method::Dasp}) {
    SCOPED_TRACE(std::string(kern::method_name(method)));
    const std::vector<float> y1 = run_single(method, a, x);
    for (const int n : {1, 2, 4}) {
      SCOPED_TRACE(n);
      expect_bit_identical(y1, run_sharded(method, a, x, n).y);
    }
  }
}

TEST(ShardedSpmv, SplitPairsBitIdenticalAcrossDeviceCounts) {
  // 6 block-row pairs of about 1020 iterations: the whole matrix's plan
  // fills 568 warps, so the pairs get unequal counts (94 or 95), while a
  // shard of 2 or 4 pairs alone would fill 568 warps itself. Every shard is
  // prepared with its slice of the whole matrix's counts, so it runs
  // exactly the single-device segments and their segment-order sums.
  const mat::Csr a = test_matrix(96, 16384, 144000, 15);
  for (const kern::Method method : {kern::Method::Spaden, kern::Method::SpadenUnpaired}) {
    const std::vector<mat::Index> counts = kern::make_kernel(method)->derive_segment_counts(a);
    ASSERT_EQ(counts.size(), method == kern::Method::Spaden ? 6u : 12u);
    EXPECT_NE(*std::min_element(counts.begin(), counts.end()),
              *std::max_element(counts.begin(), counts.end()));
    std::uint64_t warps = 0;
    for (const mat::Index c : counts) {
      warps += c;
    }
    EXPECT_EQ(warps, kern::kFillWarps);
  }
  const std::vector<float> x = dense_x(a.ncols);
  for (const kern::Method method : {kern::Method::Spaden, kern::Method::SpadenNoTc,
                                    kern::Method::SpadenConventional,
                                    kern::Method::SpadenUnpaired}) {
    SCOPED_TRACE(std::string(kern::method_name(method)));
    const std::vector<float> y1 = run_single(method, a, x);
    for (const int n : {1, 2, 4}) {
      SCOPED_TRACE(n);
      const ShardedRun r = run_sharded(method, a, x, n);
      expect_bit_identical(y1, r.y);
      std::uint64_t warps = 0;
      for (const sim::LaunchResult& launch : r.result.launches) {
        warps += launch.stats.warps_launched;
      }
      EXPECT_EQ(warps, kern::kFillWarps);
    }
  }
}

TEST(ShardedSpmv, EmptyShardsStillProduceFullY) {
  const mat::Csr a = test_matrix(40, 64, 300, 6);
  const std::vector<float> x = dense_x(a.ncols);
  const std::vector<float> y1 = run_single(kern::Method::CusparseCsr, a, x);
  expect_bit_identical(y1, run_sharded(kern::Method::CusparseCsr, a, x, 4).y);
}

TEST(ShardedSpmv, SingleRowMatrixAcrossFourDevices) {
  const mat::Csr a = test_matrix(1, 128, 64, 7);
  const std::vector<float> x = dense_x(a.ncols);
  const std::vector<float> y1 = run_single(kern::Method::CusparseCsr, a, x);
  expect_bit_identical(y1, run_sharded(kern::Method::CusparseCsr, a, x, 4).y);
}

// ---- halo + comm accounting ----------------------------------------------

TEST(ShardedSpmv, SingleDeviceGroupHasNoHaloOrCommTime) {
  const mat::Csr a = test_matrix(512, 512, 10000, 8);
  const ShardedRun r = run_sharded(kern::Method::CusparseCsr, a, dense_x(a.ncols), 1);
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_EQ(r.shards[0].halo_bytes, 0u);
  EXPECT_EQ(r.shards[0].peers, 0);
  EXPECT_EQ(r.shards[0].wire_seconds, 0.0);
  EXPECT_EQ(r.result.time.t_comm, 0.0);
  EXPECT_EQ(r.result.stats.remote_sectors, 0u);
}

TEST(ShardedSpmv, DenseStripeForcesMaximalHalo) {
  const mat::Csr a = dense_stripe_matrix(256, 1024);
  const std::vector<float> x = dense_x(a.ncols);
  const ShardedRun r = run_sharded(kern::Method::CusparseCsr, a, x, 4);
  expect_bit_identical(run_single(kern::Method::CusparseCsr, a, x), r.y);
  const std::uint64_t x_sectors = (a.ncols + 7) / 8;  // 32 B = 8 floats
  for (const auto& info : r.shards) {
    if (info.shard.empty()) {
      continue;
    }
    // Every row touches every sector, so the halo is everything not owned.
    const std::uint64_t own = info.halo_bytes / 32 == 0
                                  ? x_sectors
                                  : x_sectors - info.halo_bytes / 32;
    EXPECT_EQ(info.halo_bytes / 32, x_sectors - own);
    EXPECT_GT(info.halo_bytes, 0u);
    EXPECT_EQ(info.peers, 3);
    EXPECT_GT(info.wire_seconds, 0.0);
  }
  EXPECT_GT(r.result.stats.remote_sectors, 0u);
}

TEST(ShardedSpmv, SerialPolicyChargesWireTimeAdditively) {
  const mat::Csr a = dense_stripe_matrix(256, 1024);
  sim::DeviceGroup group(sim::l40(), 2);
  sim::SchedConfig serial;
  serial.policy = sim::SchedPolicy::Serial;
  group.set_sched(serial);
  kern::ShardedSpmv sharded(group, kern::Method::CusparseCsr);
  sharded.prepare(a);
  const ShardedRun r = run_group(sharded, dense_x(a.ncols));
  for (std::size_t d = 0; d < r.result.launches.size(); ++d) {
    if (r.shards[d].shard.empty()) {
      continue;
    }
    // Run-to-completion has no overlap: t_comm is exactly the wire time.
    EXPECT_DOUBLE_EQ(r.result.launches[d].time.t_comm, r.shards[d].wire_seconds);
  }
  EXPECT_GT(r.result.time.t_comm, 0.0);
}

TEST(DeviceGroup, WireModelFollowsPresetParameters) {
  sim::DeviceSpec spec = sim::l40();
  sim::apply_link_preset(spec, "nvlink");
  const sim::DeviceGroup group(spec, 4);
  // latency + bytes / (BW * links), links capped by peers.
  const double one_peer = group.wire_seconds(1 << 20, 1);
  const double four_peers = group.wire_seconds(1 << 20, 4);
  EXPECT_GT(one_peer, four_peers);  // more links drain the same bytes faster
  EXPECT_NEAR(one_peer, 2.0e-6 + static_cast<double>(1 << 20) / (50.0 * 1e9 * 1), 1e-12);
  EXPECT_EQ(group.wire_seconds(0, 4), 0.0);  // no halo, no cost

  sim::DeviceSpec pcie = sim::l40();
  sim::apply_link_preset(pcie, "pcie");
  const sim::DeviceGroup pgroup(pcie, 4);
  EXPECT_GT(pgroup.wire_seconds(1 << 20, 4), four_peers);  // slower fabric
  EXPECT_THROW(sim::apply_link_preset(pcie, "carrier-pigeon"), Error);
}

// ---- engine integration --------------------------------------------------

TEST(Engine, MultiDeviceMatchesSingleDeviceBitForBit) {
  const mat::Csr a = test_matrix(2048, 2048, 60000, 9);
  const std::vector<float> x = dense_x(a.ncols);
  EngineOptions base;
  base.method = kern::Method::Spaden;
  std::vector<float> y1;
  SpmvEngine single(a, base);
  const SpmvResult r1 = single.multiply(x, y1);
  EXPECT_EQ(single.num_devices(), 1);

  for (const int n : {2, 4}) {
    SCOPED_TRACE(n);
    EngineOptions opts = base;
    opts.num_devices = n;
    SpmvEngine engine(a, opts);
    EXPECT_EQ(engine.num_devices(), n);
    std::vector<float> yn;
    const SpmvResult rn = engine.multiply(x, yn);
    expect_bit_identical(y1, yn);
    EXPECT_GT(rn.modeled_seconds, 0.0);
  }
}

TEST(Engine, MultiDeviceProfileLogsArePerDevice) {
  const mat::Csr a = test_matrix(512, 512, 12000, 10);
  EngineOptions opts;
  opts.method = kern::Method::CusparseCsr;
  opts.num_devices = 2;
  opts.profile = true;
  opts.telemetry = true;
  SpmvEngine engine(a, opts);
  std::vector<float> y;
  const SpmvResult r = engine.multiply(dense_x(a.ncols), y);
  ASSERT_FALSE(r.profiles.empty());
  for (const sim::ProfileReport& report : r.profiles) {
    EXPECT_TRUE(report.enabled);
  }
  // The engine's stitched trace has one device process per device: pids 1
  // and 2, each with its own virtual-SM lanes.
  std::set<int> device_pids;
  for (const sim::TraceEvent& e : engine.telemetry()->build_trace()) {
    if (e.pid != sim::kEnginePid) {
      device_pids.insert(e.pid);
    }
  }
  EXPECT_EQ(device_pids, (std::set<int>{1, 2}));
  const std::string trace = engine.telemetry()->chrome_trace_json();
  EXPECT_NE(trace.find("\"gpusim device (modeled)\""), std::string::npos);
  EXPECT_NE(trace.find("\"gpusim device 1 (modeled)\""), std::string::npos);
}

TEST(Engine, MultiDeviceRejectsBatch) {
  const mat::Csr a = test_matrix(256, 256, 4000, 11);
  EngineOptions opts;
  opts.method = kern::Method::CusparseCsr;
  opts.num_devices = 2;
  SpmvEngine engine(a, opts);
  std::vector<std::vector<float>> xs(2, dense_x(a.ncols));
  std::vector<std::vector<float>> ys;
  EXPECT_THROW(engine.multiply_batch(xs, ys), Error);
}

// ---- launch-keyed warp weights (multi-launch kernels) --------------------

TEST(Device, LaunchKeyedWarpWeights) {
  sim::Device device(sim::l40());
  EXPECT_TRUE(device.launch_warp_weights("k").empty());
  device.set_launch_warp_weights("k", {3, 1, 2});
  EXPECT_EQ(device.launch_warp_weights("k"), (std::vector<std::uint64_t>{3, 1, 2}));
  EXPECT_TRUE(device.launch_warp_weights("other").empty());
  device.set_launch_warp_weights("k", {5});  // overwrite, not append
  EXPECT_EQ(device.launch_warp_weights("k"), (std::vector<std::uint64_t>{5}));
  device.clear_launch_warp_weights();
  EXPECT_TRUE(device.launch_warp_weights("k").empty());
}

TEST(Device, MultiLaunchKernelsKeyWeightsByLaunchName) {
  // csr_adaptive installs nnz weights for its main launch only; the global
  // vector stays clear, so its zero-fill pass (and any later kernel whose
  // warp count collides) can never pick up stale weights.
  const mat::Csr a = test_matrix(512, 512, 9000, 12);
  sim::Device device(sim::l40());
  auto kernel = kern::make_kernel(kern::Method::CsrAdaptive);
  kernel->prepare(device, a);
  EXPECT_TRUE(device.warp_weights().empty());
  EXPECT_FALSE(device.launch_warp_weights("csr_adaptive").empty());

  auto dasp = kern::make_kernel(kern::Method::Dasp);
  dasp->prepare(device, a);
  EXPECT_TRUE(device.warp_weights().empty());
  EXPECT_FALSE(device.launch_warp_weights("dasp_tc").empty());
  // Both keyed sets coexist; neither bleeds into the other's launches.
  EXPECT_FALSE(device.launch_warp_weights("csr_adaptive").empty());
  EXPECT_TRUE(device.launch_warp_weights("dasp_zero").empty());
}

TEST(EngineFootprint, BuildsOnlyTheDevicesItLaunchesOn) {
  // A 1-device engine holds one L1 and one L2 model; a 4-device engine
  // holds exactly four of each — no spare device beside its group.
  const mat::Csr a = test_matrix(1024, 1024, 16'000, 41);
  const sim::DeviceSpec spec = sim::l40();
  const std::size_t l1 =
      sim::SectorCache(spec.l1_capacity_bytes, spec.l1_ways, spec.sector_bytes).host_bytes();
  const std::size_t l2 =
      sim::SectorCache(spec.l2_capacity_bytes, spec.l2_ways, spec.sector_bytes).host_bytes();
  const std::vector<float> x(a.ncols, 0.5f);
  std::vector<float> y;
  for (const int devices : {1, 4}) {
    EngineOptions opts;
    opts.method = kern::Method::CusparseCsr;
    opts.num_devices = devices;
    opts.sim_threads = 1;
    SpmvEngine engine(a, opts);
    EXPECT_EQ(engine.sim_host_bytes(), 0u) << devices << " devices";  // built on launch
    (void)engine.multiply(x, y);
    EXPECT_EQ(engine.num_devices(), devices);
    EXPECT_EQ(engine.sim_host_bytes(), static_cast<std::size_t>(devices) * (l1 + l2))
        << devices << " devices";
  }
}

}  // namespace
}  // namespace spaden
