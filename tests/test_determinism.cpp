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

class DeterminismTest : public ::testing::TestWithParam<Method> {};

TEST_P(DeterminismTest, NumericsIdenticalAcrossDevices) {
  // The device spec only affects the *timing model*; the computed y must be
  // bit-identical between L40 and V100.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(300, 300, 6000, 77));
  EXPECT_EQ(run_y(GetParam(), sim::l40(), a), run_y(GetParam(), sim::v100(), a));
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
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(400, 400, 9000, 13));
  const std::vector<float> serial = run_y(GetParam(), sim::l40(), a, 1);
  const std::vector<float> threaded = run_y(GetParam(), sim::l40(), a, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  if (!uses_float_atomics(GetParam())) {
    EXPECT_EQ(serial, threaded);
    return;
  }
  const double tol = spmv_tolerance(a, /*half_precision_values=*/true);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], threaded[i], tol) << "row " << i;
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

TEST(Determinism, EngineDefaultsRepeatAtFourThreads) {
  // Engine defaults at T=4: every virtual SM probes its own L2 slice, so two
  // engines give byte-equal counters and profiles.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
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
