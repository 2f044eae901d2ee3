// Device presets and the analytical timing model (roofline over counters).
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "gpusim/device.hpp"

namespace spaden::sim {
namespace {

TEST(DevicePresets, PaperHardwareParameters) {
  const DeviceSpec l = l40();
  EXPECT_EQ(l.sm_count * l.tensor_cores_per_sm, 568);  // paper §5.1
  EXPECT_EQ(l.l2_capacity_bytes, 96ull * 1024 * 1024);
  const DeviceSpec v = v100();
  EXPECT_EQ(v.sm_count * v.tensor_cores_per_sm, 640);  // paper §5.1
  EXPECT_EQ(v.l2_capacity_bytes, 6ull * 1024 * 1024);
  // The m8n8k4 shape is native on Volta, penalized elsewhere (PTX ISA note
  // the paper cites for DASP's behaviour).
  EXPECT_EQ(v.mma_m8n8k4_efficiency, 1.0);
  EXPECT_LT(l.mma_m8n8k4_efficiency, 0.1);
}

TEST(DevicePresets, LookupByNameCaseInsensitive) {
  EXPECT_EQ(device_by_name("l40").name, "L40");
  EXPECT_EQ(device_by_name("V100").name, "V100");
  EXPECT_THROW(device_by_name("h100"), spaden::Error);
}

KernelStats saturated_stats() {
  KernelStats s;
  s.warps_launched = 1'000'000;  // fully occupied
  return s;
}

TEST(TimingModel, DramBoundKernel) {
  const DeviceSpec spec = l40();
  KernelStats s = saturated_stats();
  s.dram_bytes = 864'000'000;  // exactly 1 ms at 864 GB/s
  const TimeBreakdown t = estimate_time(spec, s);
  EXPECT_NEAR(t.t_dram, 1e-3, 1e-6);
  EXPECT_STREQ(t.bound_by(), "dram");
  EXPECT_NEAR(t.total, 1e-3 + spec.kernel_launch_us * 1e-6, 1e-6);
}

TEST(TimingModel, LsuBoundKernel) {
  const DeviceSpec spec = l40();
  KernelStats s = saturated_stats();
  // wavefronts = SMs * rate * clock -> exactly 1 second.
  s.wavefronts = static_cast<std::uint64_t>(spec.sm_count * spec.lsu_wavefronts_per_cycle *
                                            spec.clock_ghz * 1e9);
  const TimeBreakdown t = estimate_time(spec, s);
  EXPECT_NEAR(t.t_lsu, 1.0, 1e-9);
  EXPECT_STREQ(t.bound_by(), "lsu");
}

TEST(TimingModel, TensorCoreTerm) {
  const DeviceSpec spec = v100();
  KernelStats s = saturated_stats();
  s.tc_mma_m16n16k16 = 1000;
  const TimeBreakdown t = estimate_time(spec, s);
  EXPECT_NEAR(t.t_tc, 1000.0 * 8192 / (spec.tc_half_tflops * 1e12), 1e-12);
}

TEST(TimingModel, M8n8k4PenaltyOnL40) {
  KernelStats s = saturated_stats();
  s.tc_mma_m8n8k4 = 100000;
  const double on_v100 = estimate_time(v100(), s).t_tc;
  const double on_l40 = estimate_time(l40(), s).t_tc;
  // Same work is dramatically slower through the legacy shape on L40 —
  // DASP's observed behaviour in the paper (§5.2).
  EXPECT_GT(on_l40, 10.0 * on_v100);
}

TEST(TimingModel, RooflineTakesMaxNotSum) {
  const DeviceSpec spec = l40();
  KernelStats s = saturated_stats();
  s.dram_bytes = 864'000'000;
  s.cuda_ops = 1000;  // negligible
  const double t_mem_only = estimate_time(spec, s).total;
  s.cuda_ops = static_cast<std::uint64_t>(spec.cuda_op_rate() * spec.cuda_issue_efficiency *
                                          0.5e-3);  // 0.5 ms of compute
  const double t_both = estimate_time(spec, s).total;
  EXPECT_NEAR(t_both, t_mem_only, 1e-9);  // hidden under the memory term
}

TEST(TimingModel, OccupancyPenalizesTinyLaunches) {
  const DeviceSpec spec = l40();
  KernelStats s;
  s.dram_bytes = 1'000'000;
  s.warps_launched = 10;  // nowhere near saturation
  const double t_small = estimate_time(spec, s).t_dram;
  s.warps_launched = 1'000'000;
  const double t_big = estimate_time(spec, s).t_dram;
  EXPECT_GT(t_small, 10.0 * t_big);
}

TEST(TimingModel, AtomicsWeighted) {
  const DeviceSpec spec = l40();
  KernelStats s = saturated_stats();
  s.cuda_ops = 1000;
  const double base = estimate_time(spec, s).t_cuda;
  s.atomic_lane_ops = 1000;
  const double with_atomics = estimate_time(spec, s).t_cuda;
  EXPECT_NEAR(with_atomics / base, 1.0 + spec.atomic_weight, 1e-9);
}

TEST(TimingModel, UninitializedSpecRejected) {
  EXPECT_THROW(estimate_time(DeviceSpec{}, KernelStats{}), spaden::Error);
}

TEST(TimingModel, BreakdownSumAddsEveryField) {
  // Back-to-back launches each pay their breakdown in full. A new field
  // must join operator+= (and this test): the size check catches it.
  static_assert(sizeof(TimeBreakdown) == 9 * sizeof(double));
  const auto filled = [](double base) {
    TimeBreakdown t;
    t.t_dram = base * 1;
    t.t_l2 = base * 2;
    t.t_lsu = base * 4;
    t.t_cuda = base * 8;
    t.t_tc = base * 16;
    t.t_launch = base * 32;
    t.t_stall = base * 64;
    t.t_comm = base * 128;
    t.total = base * 256;
    return t;
  };
  TimeBreakdown sum = filled(1.0);
  sum += filled(2.0);
  const TimeBreakdown expect = filled(3.0);
  EXPECT_EQ(sum.t_dram, expect.t_dram);
  EXPECT_EQ(sum.t_l2, expect.t_l2);
  EXPECT_EQ(sum.t_lsu, expect.t_lsu);
  EXPECT_EQ(sum.t_cuda, expect.t_cuda);
  EXPECT_EQ(sum.t_tc, expect.t_tc);
  EXPECT_EQ(sum.t_launch, expect.t_launch);
  EXPECT_EQ(sum.t_stall, expect.t_stall);
  EXPECT_EQ(sum.t_comm, expect.t_comm);
  EXPECT_EQ(sum.total, expect.total);
}

TEST(LaunchResult, GflopsMetric) {
  // 2*nnz flops over the modeled time (the paper's throughput metric).
  LaunchResult r;
  r.time.total = 1e-3;
  EXPECT_NEAR(r.gflops(500'000'000), 1000.0, 1e-9);
}

TEST(ParallelLaunch, AtomicCounterExactUnderConcurrency) {
  // Every warp increments one shared counter: the total must be exact
  // regardless of how chunks interleave (LightSpMV's row counter depends on
  // this).
  Device device(l40());
  device.set_sim_threads(4);
  auto counter_buf = device.memory().alloc<std::uint32_t>(1);
  auto counter = counter_buf.span();
  const std::uint64_t warps = 2000;
  (void)device.launch("count", warps, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.atomic_fetch_add(counter, 0, 1);
  });
  EXPECT_EQ(counter[0], warps);
}

TEST(ParallelLaunch, FloatAtomicAddExactUnderConcurrency) {
  // All lanes of all warps atomicAdd 1.0f into one y element. Sums of equal
  // integers are order-independent in fp32 below 2^24, so the result is
  // exact even though the add order is scheduler-dependent.
  Device device(l40());
  device.set_sim_threads(4);
  auto y_buf = device.memory().alloc<float>(1);
  auto y = y_buf.span();
  const std::uint64_t warps = 500;
  (void)device.launch("accumulate", warps, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.atomic_add(y, make_lanes<std::uint32_t>(0), make_lanes(1.0f));
  });
  EXPECT_EQ(y[0], static_cast<float>(warps * kWarpSize));
}

TEST(ParallelLaunch, MergedCountersMatchSerialForPrivateStreams) {
  // A kernel whose warps touch disjoint address ranges exercises no shared
  // cache state, so the merged multithreaded counters must equal the serial
  // launcher's exactly.
  auto run_with = [](int threads) {
    Device device(l40());
    device.set_sim_threads(threads);
    auto buf = device.memory().alloc<float>(32 * 64);
    auto data = buf.cspan();
    return device
        .launch("stream", 64,
                [&](WarpCtx& ctx, std::uint64_t w) {
                  Lanes<std::uint32_t> idx{};
                  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                    idx[lane] = static_cast<std::uint32_t>(w * kWarpSize + lane);
                  }
                  (void)ctx.gather(data, idx);
                })
        .stats;
  };
  const KernelStats serial = run_with(1);
  const KernelStats threaded = run_with(4);
  EXPECT_EQ(serial.wavefronts, threaded.wavefronts);
  EXPECT_EQ(serial.mem_instructions, threaded.mem_instructions);
  EXPECT_EQ(serial.lane_loads, threaded.lane_loads);
  EXPECT_EQ(serial.cuda_ops, threaded.cuda_ops);
  EXPECT_EQ(serial.warps_launched, threaded.warps_launched);
  // Cold caches + disjoint streams: every sector misses in both setups.
  EXPECT_EQ(serial.sectors, threaded.sectors);
  EXPECT_EQ(serial.dram_bytes, threaded.dram_bytes);
}

TEST(ParallelLaunch, WorkerExceptionPropagates) {
  Device device(l40());
  device.set_sim_threads(4);
  EXPECT_THROW((void)device.launch("boom", 100,
                                   [&](WarpCtx&, std::uint64_t w) {
                                     SPADEN_REQUIRE(w != 57, "injected failure");
                                   }),
               spaden::Error);
}

// ----- cache-model host footprint -------------------------------------------

/// One trivial warp: enough to make the device build its cache models.
void launch_once(Device& device) {
  (void)device.launch("touch", 1, [](WarpCtx&, std::uint64_t) {});
}

const DeviceSpec kL40 = l40();
const std::size_t kL40L1Bytes =
    SectorCache(kL40.l1_capacity_bytes, kL40.l1_ways, kL40.sector_bytes).host_bytes();
const std::size_t kL40L2Bytes =
    SectorCache(kL40.l2_capacity_bytes, kL40.l2_ways, kL40.sector_bytes).host_bytes();

TEST(CacheFootprint, L40L2ModelCosts17MiB) {
  // 2^17 sets x 16 ways x (8-byte tag + half a byte of recency word).
  EXPECT_EQ(kL40L2Bytes, std::size_t{17} << 20);
}

TEST(CacheFootprint, SerialDeviceHoldsOneFlatL2) {
  // At T=1 one flat L2 is built at the first launch and stays warm across
  // launches; nothing is allocated before it.
  Device device(l40());
  device.set_sim_threads(1);
  EXPECT_EQ(device.cache_host_bytes(), 0u);
  launch_once(device);
  EXPECT_EQ(device.cache_host_bytes(), kL40L1Bytes + kL40L2Bytes);
  EXPECT_LE(static_cast<double>(kL40L2Bytes), 17.1 * 1024 * 1024);
  launch_once(device);
  EXPECT_EQ(device.cache_host_bytes(), kL40L1Bytes + kL40L2Bytes);
}

TEST(CacheFootprint, ParallelDeviceBuildsSlicesOfOneL2) {
  // At T>1 the L2 is T capacity slices that partition the same sets, and a
  // thread-count change frees the old caches.
  Device device(l40());
  device.set_sim_threads(4);
  launch_once(device);
  EXPECT_EQ(device.cache_host_bytes(), 4 * kL40L1Bytes + kL40L2Bytes);
  device.set_sim_threads(1);
  launch_once(device);
  EXPECT_EQ(device.cache_host_bytes(), kL40L1Bytes + kL40L2Bytes);
}

TEST(ParallelLaunch, ThreadCountValidation) {
  Device device(l40());
  EXPECT_THROW(device.set_sim_threads(0), spaden::Error);
  EXPECT_THROW(device.set_sim_threads(1000), spaden::Error);
  device.set_sim_threads(8);
  EXPECT_EQ(device.sim_threads(), 8);
}

}  // namespace
}  // namespace spaden::sim
