// Determinism and device-independence properties: modeled performance may
// differ between devices, but numerics must not — and everything must be
// reproducible run to run (the property the benches' comparability rests
// on).
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "core/spaden.hpp"
#include "kernels/kernel.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

std::vector<float> run_y(Method m, const sim::DeviceSpec& spec, const mat::Csr& a,
                         int sim_threads = 1) {
  sim::Device device(spec);
  device.set_sim_threads(sim_threads);
  auto kernel = make_kernel(m);
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

/// Methods whose warps may atomically accumulate partial sums into shared y
/// elements: the float add order depends on the host-thread schedule, so
/// across thread counts these are tolerance-equal, not bit-equal.
bool uses_float_atomics(Method m) {
  return m == Method::Gunrock || m == Method::CsrAdaptive || m == Method::Dasp;
}

/// 96 x 1024 with about 160 nonzeros per row: 6 block-row pairs of about
/// 64 iterations each, so the Spaden family's segment plan cuts every pair
/// and its segments hand off through scratch.
mat::Csr long_pair_matrix() {
  return mat::Csr::from_coo(mat::random_uniform(96, 1024, 15360, 14));
}

class DeterminismTest : public ::testing::TestWithParam<Method> {};

TEST_P(DeterminismTest, NumericsIdenticalAcrossDevices) {
  // The device spec only affects the *timing model*; the computed y must be
  // bit-identical between L40 and V100. A segment plan depends on the
  // matrix alone, so split pairs too.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(300, 300, 6000, 77));
  EXPECT_EQ(run_y(GetParam(), sim::l40(), a), run_y(GetParam(), sim::v100(), a));
  // The long-pair rows (about 160 nonzeros) make CSR-Adaptive combine row
  // chunks through float atomics, whose order under the interleaving
  // scheduler follows the spec's latencies; like the thread-count test
  // below, those methods are held to the tolerance instead.
  const mat::Csr long_pairs = long_pair_matrix();
  const std::vector<float> l40 = run_y(GetParam(), sim::l40(), long_pairs);
  const std::vector<float> v100 = run_y(GetParam(), sim::v100(), long_pairs);
  if (!uses_float_atomics(GetParam())) {
    EXPECT_EQ(l40, v100);
    return;
  }
  ASSERT_EQ(l40.size(), v100.size());
  const double tol = spmv_tolerance(long_pairs, /*half_precision_values=*/true);
  for (std::size_t i = 0; i < l40.size(); ++i) {
    EXPECT_NEAR(l40[i], v100[i], tol) << "row " << i;
  }
}

TEST_P(DeterminismTest, BitIdenticalAcrossRuns) {
  const mat::Csr a = mat::load_dataset("rma10", 0.01);
  EXPECT_EQ(run_y(GetParam(), sim::l40(), a), run_y(GetParam(), sim::l40(), a));
}

TEST_P(DeterminismTest, NumericsStableAcrossSimThreads) {
  // The parallel launcher partitions warps over host threads; kernels that
  // only write their own output rows must produce bit-identical y. Kernels
  // that accumulate through float atomics see a different add order, bounded
  // by the usual nnz-scaled mixed-precision tolerance.
  // The segments of a split pair stay on one virtual SM and sum in segment
  // order, so the long-pair matrix is bit-identical too.
  for (const mat::Csr& a : {mat::Csr::from_coo(mat::random_uniform(400, 400, 9000, 13)),
                            long_pair_matrix()}) {
    const std::vector<float> serial = run_y(GetParam(), sim::l40(), a, 1);
    const std::vector<float> threaded = run_y(GetParam(), sim::l40(), a, 4);
    ASSERT_EQ(serial.size(), threaded.size());
    if (!uses_float_atomics(GetParam())) {
      EXPECT_EQ(serial, threaded);
      continue;
    }
    const double tol = spmv_tolerance(a, /*half_precision_values=*/true);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(serial[i], threaded[i], tol) << "row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DeterminismTest, ::testing::ValuesIn(all_methods()),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           std::string n(method_name(info.param));
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(Determinism, MergedCountersReproducibleAcrossThreadedRuns) {
  // At a fixed thread count the warp partition is static and each worker's
  // cache slices are private, so repeated multithreaded runs must merge to
  // identical counters (the property that keeps threaded bench results
  // comparable between sessions).
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  auto stats_of = [&] {
    sim::Device device(sim::l40());
    device.set_sim_threads(4);
    auto kernel = make_kernel(Method::Spaden);
    kernel->prepare(device, a);
    std::vector<float> x(a.ncols, 0.5f);
    auto xb = device.memory().upload(x);
    auto y = device.memory().alloc<float>(a.nrows);
    return kernel->run(device, xb.cspan(), y.span()).stats;
  };
  const sim::KernelStats s1 = stats_of();
  const sim::KernelStats s2 = stats_of();
  EXPECT_EQ(s1.wavefronts, s2.wavefronts);
  EXPECT_EQ(s1.sectors, s2.sectors);
  EXPECT_EQ(s1.dram_bytes, s2.dram_bytes);
  EXPECT_EQ(s1.l2_hit_bytes, s2.l2_hit_bytes);
  EXPECT_EQ(s1.l1_hit_bytes, s2.l1_hit_bytes);
  EXPECT_EQ(s1.cuda_ops, s2.cuda_ops);
  EXPECT_EQ(s1.tc_mma_m16n16k16, s2.tc_mma_m16n16k16);
  EXPECT_EQ(s1.warps_launched, s2.warps_launched);
}

TEST(Determinism, ThreadedWorkPreservingCounters) {
  // Partitioning must not change how much work is simulated: counters that
  // are pure per-warp sums (instructions, lane ops, MMAs) are identical
  // between the serial and parallel launchers; only cache-classification
  // counters may drift (documented in docs/performance_model.md).
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  auto stats_with = [&](int threads) {
    sim::Device device(sim::l40());
    device.set_sim_threads(threads);
    auto kernel = make_kernel(Method::Spaden);
    kernel->prepare(device, a);
    std::vector<float> x(a.ncols, 0.5f);
    auto xb = device.memory().upload(x);
    auto y = device.memory().alloc<float>(a.nrows);
    return kernel->run(device, xb.cspan(), y.span()).stats;
  };
  const sim::KernelStats serial = stats_with(1);
  const sim::KernelStats threaded = stats_with(4);
  EXPECT_EQ(serial.warps_launched, threaded.warps_launched);
  EXPECT_EQ(serial.mem_instructions, threaded.mem_instructions);
  EXPECT_EQ(serial.lane_loads, threaded.lane_loads);
  EXPECT_EQ(serial.lane_stores, threaded.lane_stores);
  EXPECT_EQ(serial.cuda_ops, threaded.cuda_ops);
  EXPECT_EQ(serial.tc_mma_m16n16k16, threaded.tc_mma_m16n16k16);
  EXPECT_EQ(serial.shuffle_lane_ops, threaded.shuffle_lane_ops);
  EXPECT_EQ(serial.wavefronts, threaded.wavefronts);
}

TEST(Determinism, ModeledCountersStableAcrossRuns) {
  // Same matrix + same kernel => identical counters (no hidden state leaks
  // between Device instances).
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  auto stats_of = [&] {
    sim::Device device(sim::l40());
    auto kernel = make_kernel(Method::Spaden);
    kernel->prepare(device, a);
    std::vector<float> x(a.ncols, 0.5f);
    auto xb = device.memory().upload(x);
    auto y = device.memory().alloc<float>(a.nrows);
    return kernel->run(device, xb.cspan(), y.span()).stats;
  };
  const sim::KernelStats s1 = stats_of();
  const sim::KernelStats s2 = stats_of();
  EXPECT_EQ(s1.wavefronts, s2.wavefronts);
  EXPECT_EQ(s1.sectors, s2.sectors);
  EXPECT_EQ(s1.dram_bytes, s2.dram_bytes);
  EXPECT_EQ(s1.cuda_ops, s2.cuda_ops);
  EXPECT_EQ(s1.tc_mma_m16n16k16, s2.tc_mma_m16n16k16);
}

/// Two engines with the defaults at T = 4 give byte-equal counters and
/// profile JSON for Spaden and cuSPARSE CSR on `a`.
void expect_engine_repeats_at_four_threads(const mat::Csr& a) {
  auto run = [&](Method m) {
    EngineOptions options;
    options.method = m;
    options.sim_threads = 4;
    options.profile = true;
    SpmvEngine engine(a, options);
    const std::vector<float> x(a.ncols, 0.5f);
    std::vector<float> y;
    const SpmvResult result = engine.multiply(x, y);
    JsonWriter w;
    w.begin_array();
    for (const sim::ProfileReport& report : result.profiles) {
      report.to_json(w, /*include_sms=*/true);
    }
    w.end_array();
    return std::make_pair(result.stats, w.take());
  };
  for (const Method m : {Method::Spaden, Method::CusparseCsr}) {
    const auto first = run(m);
    const auto second = run(m);
    EXPECT_EQ(first.first, second.first) << method_name(m);
    EXPECT_EQ(first.second, second.second) << method_name(m);
    EXPECT_NE(first.second.find("\"sms\""), std::string::npos);
  }
}

TEST(Determinism, EngineDefaultsRepeatAtFourThreads) {
  // Engine defaults at T=4: every virtual SM probes its own L2 slice, so two
  // engines give byte-equal counters and profiles. On the long-pair matrix
  // all segments of a pair share a virtual SM, so which of them does the
  // hand-off's read-back follows the schedule, not host timing.
  for (const mat::Csr& a : {mat::load_dataset("conf5", 0.01), long_pair_matrix()}) {
    expect_engine_repeats_at_four_threads(a);
  }
}

TEST(Determinism, SplitPairsSameYUnderSerialAndRoundRobin) {
  // Whichever segment draws the last ticket sums the partials in segment
  // order, so the schedule cannot move y: serial and rr, at T = 1 and 4,
  // for SpMV and for the fused batch.
  const mat::Csr a = long_pair_matrix();
  std::vector<std::vector<float>> xs;
  for (int c = 0; c < 5; ++c) {
    std::vector<float> x(a.ncols);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.5f - 0.003f * static_cast<float>((i * (c + 3)) % 397);
    }
    xs.push_back(std::move(x));
  }
  for (const Method m : {Method::Spaden, Method::SpadenConventional, Method::SpadenNoTc,
                         Method::SpadenUnpaired}) {
    SCOPED_TRACE(std::string(method_name(m)));
    const auto run = [&](sim::SchedPolicy policy, int threads) {
      EngineOptions options;
      options.method = m;
      options.sim_threads = threads;
      options.sched = sim::SchedConfig{policy, 0};
      SpmvEngine engine(a, options);
      std::vector<float> y;
      (void)engine.multiply(xs[0], y);
      std::vector<std::vector<float>> ys;
      (void)engine.multiply_batch(xs, ys);
      ys.push_back(std::move(y));
      return ys;
    };
    const auto serial = run(sim::SchedPolicy::Serial, 1);
    EXPECT_EQ(serial.back(), serial.front());  // batch column 0 is run()
    EXPECT_EQ(serial, run(sim::SchedPolicy::RoundRobin, 1));
    EXPECT_EQ(serial, run(sim::SchedPolicy::RoundRobin, 4));
    EXPECT_EQ(serial, run(sim::SchedPolicy::Serial, 4));
  }
}

TEST(Determinism, DatasetSynthesisStableAcrossProcessRuns) {
  // The registry seeds are name-derived constants: the same dataset at the
  // same scale is the same matrix (this is what makes results files
  // comparable between sessions; cross-process stability is guaranteed by
  // the fixed-width xoshiro RNG, tested in test_rng.cpp).
  EXPECT_EQ(mat::load_dataset("pwtk", 0.01), mat::load_dataset("pwtk", 0.01));
  EXPECT_NE(mat::load_dataset("pwtk", 0.01).col_idx,
            mat::load_dataset("consph", 0.01).col_idx);
}

}  // namespace
}  // namespace spaden::kern
