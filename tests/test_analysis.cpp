// Experiment driver + aggregation helpers used by the figure benches.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "analysis/experiment.hpp"
#include "matrix/generate.hpp"

namespace spaden::analysis {
namespace {

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, RejectsEmptyAndNonPositive) {
  EXPECT_THROW((void)geomean({}), Error);
  EXPECT_THROW((void)geomean({1.0, 0.0}), Error);
  EXPECT_THROW((void)geomean({-1.0}), Error);
}

TEST(GeomeanSpeedup, RatioOfSeries) {
  EXPECT_NEAR(geomean_speedup({2.0, 8.0}, {1.0, 2.0}), std::sqrt(2.0 * 4.0), 1e-12);
  EXPECT_THROW((void)geomean_speedup({1.0}, {1.0, 2.0}), Error);
}

TEST(RunMethod, PopulatesEveryField) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(300, 300, 6000, 12));
  const MethodRun run = run_method(sim::l40(), kern::Method::Spaden, a, "test-matrix");
  EXPECT_EQ(run.matrix_name, "test-matrix");
  EXPECT_EQ(run.device_name, "L40");
  EXPECT_EQ(run.nnz, a.nnz());
  EXPECT_GT(run.gflops, 0.0);
  EXPECT_GT(run.modeled_seconds, 0.0);
  EXPECT_GT(run.prep_seconds, 0.0);
  EXPECT_GT(run.footprint_bytes, 0u);
  EXPECT_GT(run.footprint_bytes_per_nnz, 0.0);
  EXPECT_GE(run.verify_max_err, 0.0);
  EXPECT_GT(run.stats.warps_launched, 0u);
}

TEST(RunMethod, GflopsConsistentWithModeledTime) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(200, 200, 3000, 13));
  const MethodRun run = run_method(sim::v100(), kern::Method::CusparseCsr, a, "m");
  EXPECT_NEAR(run.gflops,
              2.0 * static_cast<double>(a.nnz()) / run.modeled_seconds / 1e9, 1e-9);
}

/// run_method builds its device from the environment's thread count.
MethodRun run_at_threads(int threads, const mat::Csr& a) {
  const char* old = std::getenv("SPADEN_SIM_THREADS");
  const std::string saved = old != nullptr ? old : "";
  setenv("SPADEN_SIM_THREADS", std::to_string(threads).c_str(), 1);
  MethodRun run = run_method(sim::l40(), kern::Method::CusparseBsr, a, "m");
  if (old != nullptr) {
    setenv("SPADEN_SIM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("SPADEN_SIM_THREADS");
  }
  return run;
}

TEST(RunMethod, DeterministicModeledNumbers) {
  // The determinism contract: y and work counters are equal at any thread
  // count; modeled time is equal run to run at T=1 (at T>1 the default
  // shared L2's hit counters follow the host schedule).
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(150, 150, 2500, 14));
  const MethodRun serial1 = run_at_threads(1, a);
  const MethodRun serial2 = run_at_threads(1, a);
  const MethodRun threaded = run_at_threads(4, a);
  EXPECT_EQ(serial1.gflops, serial2.gflops);
  EXPECT_EQ(serial1.stats.wavefronts, serial2.stats.wavefronts);
  EXPECT_EQ(serial1.stats.wavefronts, threaded.stats.wavefronts);
  // y itself stays inside run_method; its error against the fp64 reference
  // is a function of y alone, so equal y gives bit-equal errors.
  EXPECT_EQ(serial1.verify_max_err, threaded.verify_max_err);
}

}  // namespace
}  // namespace spaden::analysis
