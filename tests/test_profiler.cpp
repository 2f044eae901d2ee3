// spaden-prof: per-range counter attribution is exact and additive, reports
// are deterministic across sim-thread counts, profiling never perturbs the
// modeled time, and the JSON artifacts keep their documented schema.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/spaden.hpp"
#include "gpusim/device.hpp"
#include "matrix/generate.hpp"

namespace spaden::sim {
namespace {

Device make_device(bool profile = true, int threads = 1) {
  Device device(l40());
  device.set_sim_threads(threads);
  device.set_profile(profile);
  return device;
}

/// A two-phase kernel whose per-range counters are known exactly: "load"
/// gathers one cache line per warp, "compute" does pure ALU work.
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

const RangeProfile* find_range(const ProfileReport& report, const std::string& name) {
  for (const RangeProfile& r : report.ranges) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

std::string report_json(const ProfileReport& report, bool include_sms) {
  JsonWriter w;
  report.to_json(w, include_sms);
  return w.take();
}

// ----- range accounting -------------------------------------------------------

TEST(Profiler, RangesPartitionTheKernelCounters) {
  Device device = make_device();
  const auto result = run_two_phase(device);
  const ProfileReport& report = result.profile;
  ASSERT_TRUE(report.enabled);
  ASSERT_EQ(report.ranges.size(), 2u);
  // First-seen order is grid order.
  EXPECT_EQ(report.ranges[0].name, "load");
  EXPECT_EQ(report.ranges[1].name, "compute");
  EXPECT_EQ(report.ranges[0].invocations, 16u);
  EXPECT_EQ(report.ranges[1].invocations, 16u);

  const RangeProfile* load = find_range(report, "load");
  const RangeProfile* compute = find_range(report, "compute");
  ASSERT_NE(load, nullptr);
  ASSERT_NE(compute, nullptr);
  // The gather traffic belongs to "load" and the ALU work to "compute".
  EXPECT_GT(load->stats.lane_loads, 0u);
  EXPECT_EQ(compute->stats.lane_loads, 0u);
  EXPECT_GT(compute->stats.cuda_ops, 0u);
  // Together the two ranges cover every counter the launch charged (the
  // kernel body is fully bracketed).
  KernelStats sum = load->stats;
  sum += compute->stats;
  KernelStats launch = report.stats;
  launch.warps_launched = 0;
  EXPECT_EQ(sum, launch);
}

TEST(Profiler, AttributedRangeTimesAreAdditive) {
  Device device = make_device();
  const auto result = run_two_phase(device);
  const ProfileReport& report = result.profile;
  // Attribution runs along the launch's binding compute resource, so range
  // seconds plus the unattributed remainder reconstruct the launch's compute
  // time (total minus t_launch) exactly — the acceptance criterion is <= 5%.
  const double compute_total = report.time.total - report.time.t_launch;
  const double covered = report.ranged_seconds() + report.unattributed_seconds();
  EXPECT_NEAR(covered, compute_total, 1e-15 + 0.05 * compute_total);
  EXPECT_GE(report.unattributed_seconds(), 0.0);
  for (const RangeProfile& r : report.ranges) {
    EXPECT_GE(r.seconds(), 0.0) << r.name;
    EXPECT_LE(r.seconds(), compute_total * (1.0 + 1e-12)) << r.name;
  }
}

TEST(Profiler, DisabledProfilerRecordsNothing) {
  Device device = make_device(/*profile=*/false);
  const auto result = run_two_phase(device);
  EXPECT_FALSE(result.profile.enabled);
  EXPECT_TRUE(result.profile.ranges.empty());
  EXPECT_TRUE(device.profile_log().empty());
}

// ----- zero perturbation ------------------------------------------------------

TEST(Profiler, ModeledTimeBitIdenticalProfiledVsNot) {
  for (const int threads : {1, 4}) {
    Device plain = make_device(/*profile=*/false, threads);
    Device profiled = make_device(/*profile=*/true, threads);
    const auto a = run_two_phase(plain);
    const auto b = run_two_phase(profiled);
    EXPECT_EQ(a.stats, b.stats);
    // Bit-identical, not approximately equal: the profiler only reads
    // counters and never charges any.
    EXPECT_EQ(a.time.total, b.time.total);
    EXPECT_EQ(a.time.t_dram, b.time.t_dram);
    EXPECT_EQ(a.time.t_lsu, b.time.t_lsu);
    EXPECT_EQ(a.time.t_cuda, b.time.t_cuda);
  }
}

// ----- determinism across sim threads ----------------------------------------

TEST(Profiler, ReportDeterministicAcrossSimThreads) {
  Device serial = make_device(/*profile=*/true, /*threads=*/1);
  Device parallel = make_device(/*profile=*/true, /*threads=*/4);
  run_two_phase(serial);
  run_two_phase(parallel);
  ASSERT_EQ(serial.profile_log().size(), 1u);
  ASSERT_EQ(parallel.profile_log().size(), 1u);
  const ProfileReport& s = serial.profile_log()[0];
  const ProfileReport& p = parallel.profile_log()[0];

  ASSERT_EQ(s.ranges.size(), p.ranges.size());
  for (std::size_t i = 0; i < s.ranges.size(); ++i) {
    EXPECT_EQ(s.ranges[i].name, p.ranges[i].name);
    EXPECT_EQ(s.ranges[i].invocations, p.ranges[i].invocations);
    EXPECT_EQ(s.ranges[i].stats, p.ranges[i].stats);
    EXPECT_EQ(s.ranges[i].seconds(), p.ranges[i].seconds());
  }
  // Timeline: shards cover ascending contiguous warp ranges, so the merged
  // event stream equals the serial launcher's.
  EXPECT_EQ(s.events.size(), p.events.size());
  // Everything except the per-SM section (whose shape IS the thread count)
  // serializes byte-identically.
  EXPECT_EQ(report_json(s, /*include_sms=*/false), report_json(p, /*include_sms=*/false));
  EXPECT_EQ(p.sms.size(), 4u);
}

TEST(Profiler, TraceDeterministicAcrossRepeatedRuns) {
  auto trace_once = [] {
    Device device = make_device(/*profile=*/true, /*threads=*/2);
    run_two_phase(device);
    return chrome_trace_json(device.profile_log());
  };
  const std::string first = trace_once();
  const std::string second = trace_once();
  EXPECT_EQ(first, second);
  // One complete X event per warp (plus the range events inside them).
  std::size_t x_events = 0;
  for (std::size_t pos = first.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = first.find("\"ph\":\"X\"", pos + 1)) {
    ++x_events;
  }
  EXPECT_EQ(x_events, 16u * 3u);  // warp + "load" + "compute" per warp
  EXPECT_NE(first.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(first.find("virtual SM 1"), std::string::npos);
}

TEST(Profiler, TraceSlicesAreTimedWithTheLaunchSpec) {
  // Each warp streams its own cold cache line, so every slice is DRAM-bound:
  // on a spec with half the L40's DRAM bandwidth (same name) each slice
  // lasts exactly twice as long as on the L40 itself.
  auto slices = [](const DeviceSpec& spec) {
    Device device(spec);
    device.set_sim_threads(1);
    device.set_sched(SchedConfig{SchedPolicy::Serial, 0});
    device.set_profile(true);
    auto src = device.memory().upload(std::vector<float>(16 * kWarpSize, 1.0f), "src");
    (void)device.launch("stream", 16, [&](WarpCtx& ctx, std::uint64_t w) {
      const ProfRange prof(ctx, "load");
      Lanes<std::uint32_t> idx;
      for (int lane = 0; lane < kWarpSize; ++lane) {
        idx[static_cast<std::size_t>(lane)] =
            static_cast<std::uint32_t>(w) * kWarpSize + static_cast<std::uint32_t>(lane);
      }
      (void)ctx.gather(src.cspan(), idx);
    });
    std::vector<TraceEvent> out;
    (void)collect_launch_slices(device.profile_log().at(0), 0, out);
    return out;
  };
  DeviceSpec half_dram = l40();
  half_dram.dram_bandwidth_gbps /= 2;
  const std::vector<TraceEvent> fast = slices(l40());
  const std::vector<TraceEvent> slow = slices(half_dram);
  ASSERT_EQ(fast.size(), 16u * 2u);  // warp + "load" per warp
  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_GT(fast[i].dur_us, 0.0);
    EXPECT_NEAR(slow[i].dur_us / fast[i].dur_us, 2.0, 1e-12) << i;
  }
}

TEST(Profiler, RangeSlicesNestInsideTheirWarpSlice) {
  // "load" is memory-bound and "compute" CUDA-bound, so the two ranges timed
  // on their own counters would sum past the max-based time of their warp.
  // Timed as offsets from the warp start, every range lies inside its warp.
  for (const int threads : {1, 2}) {
    Device device = make_device(/*profile=*/true, threads);
    run_two_phase(device);
    std::vector<TraceEvent> out;
    (void)collect_launch_slices(device.profile_log().at(0), 0, out);
    std::map<std::pair<int, std::uint64_t>, const TraceEvent*> warps;
    for (const TraceEvent& e : out) {
      if (e.name == "two_phase") {
        warps[{e.tid, e.warp}] = &e;
      }
    }
    ASSERT_EQ(warps.size(), 16u);
    std::size_t ranges = 0;
    for (const TraceEvent& e : out) {
      if (e.name == "two_phase") {
        continue;
      }
      ++ranges;
      const TraceEvent& warp = *warps.at({e.tid, e.warp});
      EXPECT_GE(e.dur_us, 0.0) << e.name << " of warp " << e.warp;
      EXPECT_GE(e.ts_us, warp.ts_us) << e.name << " of warp " << e.warp;
      EXPECT_LE(e.ts_us + e.dur_us, warp.ts_us + warp.dur_us + 1e-12)
          << e.name << " of warp " << e.warp << " at T = " << threads;
    }
    EXPECT_EQ(ranges, 16u * 2u);
  }
}

// ----- schema golden tests ----------------------------------------------------

TEST(Profiler, ReportJsonKeepsItsSchema) {
  Device device = make_device();
  const auto result = run_two_phase(device);
  const std::string json = report_json(device.profile_log()[0], /*include_sms=*/true);
  for (const char* key :
       {"\"schema\": \"spaden-prof-v1\"", "\"kernel\": \"two_phase\"", "\"device\": \"L40\"",
        "\"occupancy\"", "\"truncated\"", "\"stats\"", "\"time\"", "\"ranges\"",
        "\"invocations\"", "\"seconds\"", "\"share\"", "\"ranged_seconds\"",
        "\"unattributed_seconds\"", "\"sms\"", "\"sm_imbalance\"", "\"warps_launched\"",
        "\"dram_bytes\"", "\"t_dram\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The summary renders without throwing and names both ranges.
  const std::string text = result.profile.summary();
  EXPECT_NE(text.find("load"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("(unattributed)"), std::string::npos);
}

// ----- the paper's Fig. 8 breakdown through the engine ------------------------

TEST(Profiler, SpadenBreakdownCoversTheLaunch) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(800, 800, 32000, 7));
  EngineOptions options;
  options.method = kern::Method::Spaden;
  options.profile = true;
  SpmvEngine engine(a, options);
  std::vector<float> x(a.ncols, 0.5f);
  std::vector<float> y;
  const SpmvResult r = engine.multiply(x, y);
  ASSERT_FALSE(r.profiles.empty());
  const ProfileReport& report = r.profiles.back();

  // The measured Fig. 8 phases are all present...
  for (const char* name : {"decode", "mma", "extract"}) {
    EXPECT_NE(find_range(report, name), nullptr) << name;
  }
  // ...and their attributed times sum to the launch's compute total within
  // the 5% acceptance bound (exactly, minus the unattributed remainder).
  const double compute_total = report.time.total - report.time.t_launch;
  ASSERT_GT(compute_total, 0.0);
  const double covered = report.ranged_seconds() + report.unattributed_seconds();
  EXPECT_NEAR(covered / compute_total, 1.0, 0.05);
  EXPECT_GE(report.ranged_seconds(), 0.5 * compute_total)
      << "instrumentation should cover most of the kernel";
}

TEST(Profiler, EngineProfilesOffByDefault) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(200, 200, 4000, 3));
  SpmvEngine engine(a, EngineOptions{});
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  const SpmvResult r = engine.multiply(x, y);
  EXPECT_TRUE(r.profiles.empty());
}

}  // namespace
}  // namespace spaden::sim
