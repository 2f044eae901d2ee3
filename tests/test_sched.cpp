// gpusim/sched: the interleaved warp scheduler must never change what a
// kernel computes — only the order the cache models see accesses in — and
// must stay deterministic at a fixed thread count. The opt-in shared
// set-sharded L2 must be bit-identical to the monolithic cache at T=1 and
// numerically exact at any T. Fiber suspension must compose with
// spaden-prof (exact range attribution, split timeline slices) and
// spaden-sancheck (per-warp event attribution, no false positives).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/spaden.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"
#include "gpusim/shared_l2.hpp"
#include "kernels/kernel.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::sim {
namespace {

Device make_device(SchedConfig sched, int threads = 1, bool shared_l2 = false,
                   const DeviceSpec& spec = l40()) {
  Device device(spec);
  device.set_sim_threads(threads);
  device.set_sched(sched);
  device.set_shared_l2(shared_l2);
  return device;
}

constexpr SchedConfig kSerial{SchedPolicy::Serial, 0};
// Small test launches would derive a one-warp window from occupancy (no
// interleaving at all), so the fiber tests pin an 8-warp resident window.
constexpr SchedConfig kRr{SchedPolicy::RoundRobin, 8};

/// The profiler suite's two-phase kernel: "load" gathers one disjoint cache
/// line per warp, "compute" is pure ALU work. Every per-range counter is
/// known exactly, which makes attribution errors visible.
LaunchResult run_two_phase(Device& device, std::uint64_t warps = 16) {
  auto src = device.memory().upload(std::vector<float>(warps * kWarpSize, 1.0f), "src");
  return device.launch("two_phase", warps, [&](WarpCtx& ctx, std::uint64_t w) {
    ctx.range_push("load");
    Lanes<std::uint32_t> idx;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      idx[static_cast<std::size_t>(lane)] =
          static_cast<std::uint32_t>(w) * kWarpSize + static_cast<std::uint32_t>(lane);
    }
    (void)ctx.gather(src.cspan(), idx);
    ctx.range_pop();
    const ProfRange prof(ctx, "compute");
    ctx.charge(OpClass::Fma, 8 * kWarpSize);
  });
}

/// Streaming-reuse kernel shaped like a block-diagonal SpMV: each warp owns
/// a private x segment of `seg_floats` and sweeps it `passes` times. In
/// grid order the segment stays L2-hot between passes; interleaved, the
/// resident window multiplies the working set.
LaunchResult run_reuse(Device& device, std::uint64_t warps, std::uint64_t seg_floats,
                       int passes) {
  auto src =
      device.memory().upload(std::vector<float>(warps * seg_floats, 1.0f), "reuse.x");
  return device.launch("reuse", warps, [&](WarpCtx& ctx, std::uint64_t w) {
    for (int pass = 0; pass < passes; ++pass) {
      for (std::uint64_t base = 0; base < seg_floats; base += kWarpSize) {
        Lanes<std::uint32_t> idx;
        for (int lane = 0; lane < kWarpSize; ++lane) {
          idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
              w * seg_floats + base + static_cast<std::uint64_t>(lane));
        }
        (void)ctx.gather(src.cspan(), idx);
      }
    }
  });
}

std::vector<float> run_y(kern::Method m, const mat::Csr& a, SchedConfig sched,
                         int threads = 1, bool shared_l2 = false) {
  Device device = make_device(sched, threads, shared_l2);
  auto kernel = kern::make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  (void)kernel->run(device, xb.cspan(), y.span());
  return y.host();
}

KernelStats run_stats(kern::Method m, const mat::Csr& a, SchedConfig sched,
                      int threads = 1, bool shared_l2 = false) {
  Device device = make_device(sched, threads, shared_l2);
  auto kernel = kern::make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols, 0.5f);
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  return kernel->run(device, xb.cspan(), y.span()).stats;
}

std::string report_json(const ProfileReport& report, bool include_sms) {
  JsonWriter w;
  report.to_json(w, include_sms);
  return w.take();
}

// ----- policy plumbing --------------------------------------------------------

TEST(Sched, PolicyNamesRoundTrip) {
  for (const SchedPolicy p : {SchedPolicy::Serial, SchedPolicy::RoundRobin}) {
    EXPECT_EQ(parse_sched(sched_policy_name(p), "--sched"), (SchedConfig{p, 0}));
  }
  EXPECT_EQ(parse_sched("rr:1024", "--sched"), (SchedConfig{SchedPolicy::RoundRobin, 1024}));
  EXPECT_THROW((void)parse_sched("fifo", "--sched"), Error);
}

TEST(Sched, EnvDefaultParsing) {
  const char* saved = std::getenv("SPADEN_SIM_SCHED");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("SPADEN_SIM_SCHED", "rr:8", 1);
  EXPECT_EQ(default_sched(), (SchedConfig{SchedPolicy::RoundRobin, 8}));
  ::setenv("SPADEN_SIM_SCHED", "serial", 1);
  EXPECT_EQ(default_sched(), kSerial);
  ::unsetenv("SPADEN_SIM_SCHED");
  EXPECT_EQ(default_sched(), kSerial);

  if (saved != nullptr) {
    ::setenv("SPADEN_SIM_SCHED", saved_value.c_str(), 1);
  }
}

TEST(Sched, ResidentWindowDerivation) {
  const DeviceSpec spec = l40();
  // Explicit window wins, clamped to the device residency ceiling.
  EXPECT_EQ(resident_window(spec, {SchedPolicy::RoundRobin, 5}, 1 << 20), 5);
  EXPECT_EQ(resident_window(spec, {SchedPolicy::RoundRobin, 10'000}, 1 << 20),
            spec.max_warps_per_sm);
  // Saturating launch: the full residency window.
  constexpr SchedConfig kDerived{SchedPolicy::RoundRobin, 0};
  EXPECT_EQ(resident_window(spec, kDerived, 1 << 20), spec.max_warps_per_sm);
  // Tiny launch: occupancy-scaled, but never below one resident warp.
  EXPECT_GE(resident_window(spec, kDerived, 1), 1);
  EXPECT_LT(resident_window(spec, kDerived, 1), spec.max_warps_per_sm);
}

// ----- serial is the classic launcher -----------------------------------------

TEST(Sched, SerialConfigMatchesClassicLauncher) {
  for (const int threads : {1, 4}) {
    Device classic = make_device(kSerial, threads);
    Device configured = make_device({SchedPolicy::Serial, 7}, threads);
    const auto a = run_two_phase(classic);
    const auto b = run_two_phase(configured);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.time.total, b.time.total);
  }
}

TEST(Sched, SingleResidentWarpMatchesSerial) {
  // A one-warp window has nothing to switch to: rr degenerates to
  // run-to-completion and must reproduce serial counters exactly.
  Device serial = make_device(kSerial);
  Device rr = make_device({SchedPolicy::RoundRobin, 1});
  EXPECT_EQ(run_two_phase(serial).stats, run_two_phase(rr).stats);
}

// ----- scheduling never changes numerics --------------------------------------

class SchedPolicyTest : public ::testing::TestWithParam<SchedConfig> {};

TEST_P(SchedPolicyTest, NumericsBitIdenticalToSerial) {
  // Spaden warps write only their own output rows; no float-atomic order
  // dependence, so any schedule must produce bit-identical y.
  const mat::Csr a = mat::load_dataset("rma10", 0.01);
  const std::vector<float> serial = run_y(kern::Method::Spaden, a, kSerial);
  EXPECT_EQ(serial, run_y(kern::Method::Spaden, a, GetParam(), /*threads=*/1));
  EXPECT_EQ(serial, run_y(kern::Method::Spaden, a, GetParam(), /*threads=*/4));
}

TEST_P(SchedPolicyTest, WorkPreservingCounters) {
  // Interleaving reorders the access stream; it must not change how much
  // work is simulated. Only cache-classification counters may drift.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const KernelStats serial = run_stats(kern::Method::Spaden, a, kSerial);
  const KernelStats sched = run_stats(kern::Method::Spaden, a, GetParam());
  EXPECT_EQ(serial.warps_launched, sched.warps_launched);
  EXPECT_EQ(serial.mem_instructions, sched.mem_instructions);
  EXPECT_EQ(serial.lane_loads, sched.lane_loads);
  EXPECT_EQ(serial.lane_stores, sched.lane_stores);
  EXPECT_EQ(serial.cuda_ops, sched.cuda_ops);
  EXPECT_EQ(serial.tc_mma_m16n16k16, sched.tc_mma_m16n16k16);
  EXPECT_EQ(serial.shuffle_lane_ops, sched.shuffle_lane_ops);
  EXPECT_EQ(serial.wavefronts, sched.wavefronts);
}

TEST_P(SchedPolicyTest, DeterministicRunToRunAtFixedThreads) {
  // The ISSUE's determinism contract: fixed SPADEN_SIM_THREADS + policy =>
  // counters, profiles and the chrome trace are byte-identical run to run.
  for (const int threads : {1, 4}) {
    auto once = [&](std::string* json, std::string* trace) {
      Device device = make_device(GetParam(), threads);
      device.set_profile(true);
      const auto result = run_reuse(device, 16, 256, 2);
      *json = report_json(device.profile_log()[0], /*include_sms=*/true);
      *trace = chrome_trace_json(device.profile_log());
      return result.stats;
    };
    std::string json1;
    std::string json2;
    std::string trace1;
    std::string trace2;
    const KernelStats s1 = once(&json1, &trace1);
    const KernelStats s2 = once(&json2, &trace2);
    EXPECT_EQ(s1, s2) << "threads=" << threads;
    EXPECT_EQ(json1, json2) << "threads=" << threads;
    EXPECT_EQ(trace1, trace2) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedPolicyTest, ::testing::Values(kRr),
                         [](const ::testing::TestParamInfo<SchedConfig>& info) {
                           return std::string(sched_policy_name(info.param.policy));
                         });

// ----- fibers + spaden-prof ---------------------------------------------------

TEST(Sched, RangeAttributionExactAcrossSuspension) {
  // Every gather in "load" is a yield point, so warps may suspend mid-range;
  // the partial-interval accounting must still attribute every counter the
  // launch charged to exactly one range. The one exception is
  // exposed_stall_cycles: stalls exposed while finished warps drain their
  // scoreboards happen after the warp body returned, outside every range,
  // so the launch total may exceed the range sum for that counter only.
  Device device = make_device(kRr);
  device.set_profile(true);
  const auto result = run_two_phase(device);
  const ProfileReport& report = result.profile;
  ASSERT_TRUE(report.enabled);
  ASSERT_EQ(report.ranges.size(), 2u);
  EXPECT_EQ(report.ranges[0].name, "load");
  EXPECT_EQ(report.ranges[1].name, "compute");
  EXPECT_EQ(report.ranges[0].invocations, 16u);
  EXPECT_EQ(report.ranges[1].invocations, 16u);
  EXPECT_GT(report.ranges[0].stats.lane_loads, 0u);
  EXPECT_EQ(report.ranges[1].stats.lane_loads, 0u);
  KernelStats sum = report.ranges[0].stats;
  sum += report.ranges[1].stats;
  KernelStats launch = report.stats;
  launch.warps_launched = 0;
  EXPECT_GE(launch.exposed_stall_cycles, sum.exposed_stall_cycles);
  launch.exposed_stall_cycles = sum.exposed_stall_cycles;
  EXPECT_EQ(sum, launch);
}

TEST(Sched, TimelineSplitsSuspendedWarps) {
  // A suspended warp's residency interval closes and a new one opens on
  // resume, so the rr trace carries more complete slices than the serial
  // trace (which has exactly one warp slice per warp). The reuse kernel
  // streams enough cold DRAM lines per warp to fill the per-warp scoreboard
  // and force genuine suspensions.
  auto x_events = [](const std::string& trace) {
    std::size_t n = 0;
    for (std::size_t pos = trace.find("\"ph\":\"X\""); pos != std::string::npos;
         pos = trace.find("\"ph\":\"X\"", pos + 1)) {
      ++n;
    }
    return n;
  };
  Device serial = make_device(kSerial);
  serial.set_profile(true);
  run_reuse(serial, 16, 16 * kWarpSize, 1);
  Device rr = make_device(kRr);
  rr.set_profile(true);
  run_reuse(rr, 16, 16 * kWarpSize, 1);
  const std::string serial_trace = chrome_trace_json(serial.profile_log());
  const std::string rr_trace = chrome_trace_json(rr.profile_log());
  EXPECT_EQ(x_events(serial_trace), 16u);
  EXPECT_GT(x_events(rr_trace), 16u);
  EXPECT_NE(rr_trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ----- fibers + spaden-sancheck -----------------------------------------------

TEST(Sched, SancheckCleanKernelStaysCleanUnderRr) {
  // Per-warp divergence state (the last active mask) is saved and restored
  // across fiber switches: warps alternating between full and half masks
  // interleave without leaking masks into each other's sync-lint checks.
  Device device = make_device({SchedPolicy::RoundRobin, 8});
  device.set_sanitize(true);
  auto buf = device.memory().alloc<float>(64 * kWarpSize, "clean.dst");
  auto dst = buf.span();
  const auto result = device.launch("clean", 64, [&](WarpCtx& ctx, std::uint64_t w) {
    const std::uint32_t mask = (w % 2 == 0) ? kFullMask : 0x0000FFFFu;
    Lanes<std::uint32_t> idx;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
          w * kWarpSize + static_cast<std::uint64_t>(lane));
    }
    ctx.scatter(dst, idx, make_lanes(1.0f), mask);
    ctx.sync_warp(mask);
  });
  EXPECT_EQ(result.sanitizer.total(), 0u) << result.sanitizer.summary();
}

TEST(Sched, SancheckAttributesFindingsAcrossSwitches) {
  // A genuine inter-warp race (two warps plain-storing the same element)
  // must be reported identically whether the warps run back-to-back or
  // interleaved on fibers — event streams stay attributed per warp.
  auto race_findings = [](SchedConfig sched) {
    Device device = make_device(sched);
    device.set_sanitize(true);
    auto buf = device.memory().alloc<float>(kWarpSize, "race.dst");
    auto dst = buf.span();
    const auto result = device.launch("race", 4, [&](WarpCtx& ctx, std::uint64_t) {
      ctx.scalar_store(dst, 0, 1.0f);
    });
    return result.sanitizer.count(SanKind::InterWarpRace);
  };
  const std::uint64_t serial = race_findings(kSerial);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(race_findings(kRr), serial);
}

// ----- cache fidelity: interleaving is less optimistic ------------------------

TEST(Sched, RrLowersL2ReuseHitRateOnReuseHeavyMatrix) {
  // The deviation the scheduler exists to close: run-to-completion lets
  // each warp's x segment stay L2-hot across passes; a 16-warp resident
  // window multiplies the live working set past the L2 and thrashes it.
  DeviceSpec spec = l40();
  spec.l1_capacity_bytes = 2 * 1024;
  spec.l2_capacity_bytes = 64 * 1024;
  auto l2_hit_rate = [](const KernelStats& s) {
    return static_cast<double>(s.l2_hit_bytes) /
           static_cast<double>(s.l2_hit_bytes + s.dram_bytes);
  };
  Device serial = make_device(kSerial, 1, false, spec);
  Device rr = make_device({SchedPolicy::RoundRobin, 16}, 1, false, spec);
  // 32 warps x 16 KB private segment x 4 passes (seg fits L2; window of 16
  // segments = 4x the L2).
  const KernelStats s = run_reuse(serial, 32, 4096, 4).stats;
  const KernelStats r = run_reuse(rr, 32, 4096, 4).stats;
  EXPECT_EQ(s.lane_loads, r.lane_loads);  // same simulated work
  EXPECT_GT(r.dram_bytes, 2 * s.dram_bytes);
  EXPECT_LT(l2_hit_rate(r), l2_hit_rate(s));
}

// ----- shared sharded L2 ------------------------------------------------------

TEST(SharedL2, MatchesMonolithicCacheExactly) {
  // Striping by low set-index bits partitions the monolithic cache's sets,
  // so hit/miss classification is identical access by access.
  SectorCache mono(1 << 20, 16);
  SharedL2 sharded(1 << 20, 16, 32);
  ASSERT_GT(sharded.stripes(), 1);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 200'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t addr = (state >> 17) % (8u << 20);
    EXPECT_EQ(sharded.access(addr), mono.access(addr)) << "access " << i;
  }
  EXPECT_EQ(sharded.hits(), mono.hits());
  EXPECT_EQ(sharded.misses(), mono.misses());
}

TEST(SharedL2, StripeCountInvariant) {
  // max_stripes only picks the lock granularity (a single-threaded device
  // passes 1 for host-side locality); classification must not notice.
  SharedL2 flat(1 << 20, 16, 32, /*max_stripes=*/1);
  SharedL2 sharded(1 << 20, 16, 32);
  ASSERT_EQ(flat.stripes(), 1);
  ASSERT_GT(sharded.stripes(), 1);
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 200'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t addr = (state >> 17) % (8u << 20);
    EXPECT_EQ(flat.access(addr), sharded.access(addr)) << "access " << i;
  }
  EXPECT_EQ(flat.hits(), sharded.hits());
  EXPECT_EQ(flat.misses(), sharded.misses());
}

TEST(SharedL2, SingleThreadBitIdenticalToSliceL2) {
  // At T=1 the slice L2 is the whole cache, and the sharded cache is
  // bit-identical to it: enabling shared-l2 must not move a single counter.
  Device slice = make_device(kSerial, 1, /*shared_l2=*/false);
  Device shared = make_device(kSerial, 1, /*shared_l2=*/true);
  const auto a = run_reuse(slice, 16, 1024, 2);
  const auto b = run_reuse(shared, 16, 1024, 2);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.time.total, b.time.total);
}

TEST(SharedL2, NumericsExactAtAnyThreadCount) {
  // Shared-L2 counters may wobble with T>1 host interleaving; y must not.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const std::vector<float> serial = run_y(kern::Method::Spaden, a, kSerial);
  EXPECT_EQ(serial, run_y(kern::Method::Spaden, a, kSerial, 4, /*shared_l2=*/true));
  EXPECT_EQ(serial, run_y(kern::Method::Spaden, a, kRr, 4, /*shared_l2=*/true));
}

TEST(SharedL2, WorkPreservingCountersUnderThreads) {
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const KernelStats serial = run_stats(kern::Method::Spaden, a, kSerial);
  const KernelStats shared = run_stats(kern::Method::Spaden, a, kSerial, 4, true);
  EXPECT_EQ(serial.warps_launched, shared.warps_launched);
  EXPECT_EQ(serial.mem_instructions, shared.mem_instructions);
  EXPECT_EQ(serial.lane_loads, shared.lane_loads);
  EXPECT_EQ(serial.cuda_ops, shared.cuda_ops);
  EXPECT_EQ(serial.wavefronts, shared.wavefronts);
}

TEST(SharedL2, SeesCrossSmReuseThatSlicesCannot) {
  // Every virtual SM reads the same 128 KB region. Private slices fetch it
  // from DRAM once per SM; the shared L2 fetches it roughly once total.
  DeviceSpec spec = l40();
  spec.l1_capacity_bytes = 4 * 1024;
  spec.l2_capacity_bytes = 2 * 1024 * 1024;
  auto dram_with = [&](bool shared_l2) {
    Device device = make_device(kSerial, 4, shared_l2, spec);
    auto src = device.memory().upload(std::vector<float>(32 * 1024, 1.0f), "shared.x");
    const auto result = device.launch("cross_sm", 8, [&](WarpCtx& ctx, std::uint64_t) {
      for (std::uint32_t base = 0; base < 32 * 1024; base += kWarpSize) {
        Lanes<std::uint32_t> idx;
        for (int lane = 0; lane < kWarpSize; ++lane) {
          idx[static_cast<std::size_t>(lane)] = base + static_cast<std::uint32_t>(lane);
        }
        (void)ctx.gather(src.cspan(), idx);
      }
    });
    return result.stats.dram_bytes;
  };
  const std::uint64_t slice = dram_with(false);
  const std::uint64_t shared = dram_with(true);
  EXPECT_LT(shared, (3 * slice) / 4);
}

// ----- nnz-balanced warp partition --------------------------------------------

TEST(Sched, NnzBalancedPartitionEqualizesWeight) {
  // Four heavy warps up front: the equal-count split (no weights) gives SM0
  // all of them; the weight-balanced split isolates each heavy warp on its
  // own SM.
  auto sm_warps = [](std::vector<std::uint64_t> weights) {
    Device device = make_device(kSerial, 4);
    device.set_profile(true);
    device.set_warp_weights(std::move(weights));
    run_reuse(device, 16, 64, 1);
    std::vector<std::uint64_t> warps;
    for (const SmProfile& sm : device.profile_log()[0].sms) {
      warps.push_back(sm.warps);
    }
    return warps;
  };
  std::vector<std::uint64_t> weights(16, 1);
  weights[0] = weights[1] = weights[2] = weights[3] = 100;
  EXPECT_EQ(sm_warps({}), (std::vector<std::uint64_t>{4, 4, 4, 4}));
  EXPECT_EQ(sm_warps(weights), (std::vector<std::uint64_t>{1, 1, 1, 13}));
  // Weights that do not match the launch shape fall back to equal counts.
  EXPECT_EQ(sm_warps({1, 2, 3}), (std::vector<std::uint64_t>{4, 4, 4, 4}));
}

TEST(Sched, KernelsDeriveNnzWarpWeights) {
  // The engine-policy promotion: kernels with a static warp->row mapping
  // install per-warp nnz weights in prepare, so the nnz-balanced
  // partition has real work estimates to cut by. The weights must cover
  // every stored value exactly once.
  const mat::Csr a = mat::load_dataset("rma10", 0.02);
  // Multi-launch kernels (csr_adaptive's zero-fill + main pass, DASP's
  // three passes) key their weights by launch name so secondary launches
  // never see stale weights; single-launch kernels still use the global
  // vector. An empty launch key means "read the global vector".
  auto weights_after_prepare = [&](kern::Method m, std::string_view launch = {}) {
    Device device = make_device(kSerial);
    auto kernel = kern::make_kernel(m);
    kernel->prepare(device, a);
    return launch.empty() ? device.warp_weights() : device.launch_warp_weights(launch);
  };
  const std::pair<kern::Method, std::string_view> weighted[] = {
      {kern::Method::Spaden, {}},
      {kern::Method::SpadenWide, {}},
      {kern::Method::CusparseCsr, {}},
      {kern::Method::CsrWarp16, {}},
      {kern::Method::CsrAdaptive, "csr_adaptive"},
  };
  for (const auto& [m, launch] : weighted) {
    const std::vector<std::uint64_t> w = weights_after_prepare(m, launch);
    ASSERT_FALSE(w.empty()) << kern::method_name(m);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : w) {
      sum += v;
    }
    EXPECT_EQ(sum, static_cast<std::uint64_t>(a.nnz())) << kern::method_name(m);
  }
  // Keyed kernels leave the global vector clear — that's the point of the
  // fix: a later launch with a colliding warp count can't inherit them.
  EXPECT_TRUE(weights_after_prepare(kern::Method::CsrAdaptive).empty());
  // DASP weights count tile chunks per group (not nnz) and belong to the
  // dominant dasp_tc pass; LightSpMV's dynamic row dispatch has no static
  // mapping to weigh at all.
  EXPECT_FALSE(weights_after_prepare(kern::Method::Dasp, "dasp_tc").empty());
  EXPECT_TRUE(weights_after_prepare(kern::Method::LightSpmv).empty());
}

TEST(Sched, PartitionChoiceNeverChangesNumerics) {
  // The split must only move warp boundaries between virtual SMs, never
  // results — for every kernel that installs weights and writes its own
  // rows (float-atomic kernels are order-dependent by design). Clearing the
  // weights the kernel installed in prepare selects the equal-count split.
  const mat::Csr a = mat::load_dataset("rma10", 0.01);
  auto y_with = [&](kern::Method m, bool balanced) {
    Device device = make_device(kSerial, 4);
    auto kernel = kern::make_kernel(m);
    kernel->prepare(device, a);
    if (!balanced) {
      device.set_warp_weights({});
      device.clear_launch_warp_weights();
    }
    std::vector<float> x(a.ncols);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
    }
    auto xb = device.memory().upload(x);
    auto y = device.memory().alloc<float>(a.nrows);
    (void)kernel->run(device, xb.cspan(), y.span());
    return y.host();
  };
  for (const kern::Method m : {kern::Method::Spaden, kern::Method::SpadenWide,
                               kern::Method::CusparseCsr, kern::Method::CsrWarp16}) {
    EXPECT_EQ(y_with(m, false), y_with(m, true)) << kern::method_name(m);
  }
}

// ----- latency model: exposed stalls ------------------------------------------

/// One disjoint cold cache line per warp, nothing else: every completion
/// latency is a DRAM miss and every issue interval is a handful of cycles,
/// so the exposed-stall total is known in closed form.
KernelStats run_one_line_per_warp(Device& device, std::uint64_t warps) {
  auto src = device.memory().upload(std::vector<float>(warps * kWarpSize, 1.0f), "stall.src");
  return device
      .launch("stall",
              warps,
              [&](WarpCtx& ctx, std::uint64_t w) {
                Lanes<std::uint32_t> idx;
                for (int lane = 0; lane < kWarpSize; ++lane) {
                  idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
                      w * kWarpSize + static_cast<std::uint64_t>(lane));
                }
                (void)ctx.gather(src.cspan(), idx);
              })
      .stats;
}

TEST(Stall, HandScheduleExposesOneDramLatency) {
  // Two warps, two-warp window, one DRAM load each: neither warp fills its
  // scoreboard, so both bodies run back to back and the loads drain after
  // the last body returns. Warp 0's miss is covered only by the few cycles
  // it takes to issue warp 1's load (cost c), leaving L - c exposed; warp
  // 1's drain then exposes the remaining ~c. The issue cost cancels: total
  // exposed ~= one raw dram latency (the scoreboard model charges per-level
  // latencies undivided — parallelism is the slots themselves).
  Device serial = make_device(kSerial);
  EXPECT_EQ(run_one_line_per_warp(serial, 2).exposed_stall_cycles, 0u);

  Device rr = make_device({SchedPolicy::RoundRobin, 2});
  const DeviceSpec spec = l40();
  const std::uint64_t latency = spec.dram_latency_cycles;
  const std::uint64_t exposed = run_one_line_per_warp(rr, 2).exposed_stall_cycles;
  EXPECT_GE(exposed, latency - 64);
  EXPECT_LE(exposed, latency);
}

TEST(Stall, EstimateTimeAddsStallTerm) {
  const DeviceSpec spec = l40();
  KernelStats stats;
  stats.warps_launched = 4;
  stats.wavefronts = 1000;
  const TimeBreakdown base = estimate_time(spec, stats);
  EXPECT_EQ(base.t_stall, 0.0);

  // Stall cycles spread over min(warps, sm_count) SMs — a 4-warp launch
  // keeps 4 virtual SMs busy, so that is the divisor, not the full device —
  // derated by the calibrated exposure fraction (stall_exposure_ilv).
  stats.exposed_stall_cycles = 5'000'000;
  const TimeBreakdown stalled = estimate_time(spec, stats);
  const double expected = 5e6 * spec.stall_exposure_ilv / (4.0 * spec.clock_ghz * 1e9);
  EXPECT_DOUBLE_EQ(stalled.t_stall, expected);
  EXPECT_DOUBLE_EQ(stalled.total, base.total + expected);
  EXPECT_STREQ(stalled.bound_by(), "stall");

  // Component view: passing the parent's stall_sms keeps t_stall additive
  // across subsets (half the cycles -> half the term).
  KernelStats half = stats;
  half.exposed_stall_cycles = stats.exposed_stall_cycles / 2;
  const TimeBreakdown part = estimate_component_time(spec, half, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(part.t_stall, expected / 2);
}

TEST(Stall, JsonKeysOnlyWhenStalled) {
  // Serial runs never stall, and their JSON must not change shape across
  // the default flip: exposed_stall_cycles / t_stall appear only when
  // nonzero, keeping pre-existing serial goldens byte-identical.
  auto profile_json = [](SchedConfig sched) {
    Device device = make_device(sched);
    device.set_profile(true);
    run_one_line_per_warp(device, 2);
    return report_json(device.profile_log()[0], /*include_sms=*/true);
  };
  const std::string serial = profile_json(kSerial);
  EXPECT_EQ(serial.find("exposed_stall_cycles"), std::string::npos);
  EXPECT_EQ(serial.find("t_stall"), std::string::npos);
  const std::string rr = profile_json({SchedPolicy::RoundRobin, 2});
  EXPECT_NE(rr.find("exposed_stall_cycles"), std::string::npos);
  EXPECT_NE(rr.find("t_stall"), std::string::npos);
}

// ----- engine defaults: rr + shared L2, serial stays recoverable --------------

TEST(Sched, EngineDefaultEnvFlip) {
  const char* saved_sched = std::getenv("SPADEN_SIM_SCHED");
  const std::string saved_sched_value = saved_sched != nullptr ? saved_sched : "";
  const char* saved_l2 = std::getenv("SPADEN_SIM_SHARED_L2");
  const std::string saved_l2_value = saved_l2 != nullptr ? saved_l2 : "";

  // Engine default: rr with an occupancy-derived window, shared L2.
  ::unsetenv("SPADEN_SIM_SCHED");
  ::unsetenv("SPADEN_SIM_SHARED_L2");
  EXPECT_EQ(default_engine_sched(), (SchedConfig{SchedPolicy::RoundRobin, 0}));
  EXPECT_TRUE(engine_shared_l2(default_engine_sched()));
  EXPECT_TRUE(EngineOptions{}.shared_l2);
  // SPADEN_SIM_SCHED=serial recovers the classic anchor, and pulls the L2
  // default back to per-SM slices with it for bit-for-bit reproducibility.
  ::setenv("SPADEN_SIM_SCHED", "serial", 1);
  EXPECT_EQ(default_engine_sched(), kSerial);
  EXPECT_FALSE(engine_shared_l2(default_engine_sched()));
  EXPECT_FALSE(EngineOptions{}.shared_l2);
  // The pairing follows the chosen config, not the env's (--sched rr under
  // SPADEN_SIM_SCHED=serial still shares the L2).
  EXPECT_TRUE(engine_shared_l2(kRr));
  ::unsetenv("SPADEN_SIM_SCHED");
  EXPECT_FALSE(engine_shared_l2(kSerial));
  // The L2 env var always wins, in both directions.
  ::setenv("SPADEN_SIM_SHARED_L2", "1", 1);
  EXPECT_TRUE(engine_shared_l2(kSerial));
  ::setenv("SPADEN_SIM_SHARED_L2", "0", 1);
  EXPECT_FALSE(engine_shared_l2(kRr));

  if (saved_sched != nullptr) {
    ::setenv("SPADEN_SIM_SCHED", saved_sched_value.c_str(), 1);
  } else {
    ::unsetenv("SPADEN_SIM_SCHED");
  }
  if (saved_l2 != nullptr) {
    ::setenv("SPADEN_SIM_SHARED_L2", saved_l2_value.c_str(), 1);
  } else {
    ::unsetenv("SPADEN_SIM_SHARED_L2");
  }
}

TEST(Sched, ExplicitSerialEngineMatchesClassicDevice) {
  // An engine pinned to serial + slice L2 reproduces the raw classic
  // launcher bit for bit — the regression anchor survives the default flip.
  const mat::Csr a = mat::load_dataset("rma10", 0.01);
  EngineOptions options;
  options.method = kern::Method::Spaden;
  options.sim_threads = 1;
  options.sched = kSerial;
  options.shared_l2 = false;
  options.verify_first_run = false;
  SpmvEngine engine(a, options);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
  }
  std::vector<float> y;
  const SpmvResult result = engine.multiply(x, y);
  EXPECT_EQ(y, run_y(kern::Method::Spaden, a, kSerial));
  EXPECT_EQ(result.time.t_stall, 0.0);
  EXPECT_EQ(result.stats.exposed_stall_cycles, 0u);
}

}  // namespace
}  // namespace spaden::sim
