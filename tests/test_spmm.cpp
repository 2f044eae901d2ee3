// SpMM kernels (the §7 future-work extension): correctness against the
// fp64 reference and the tensor-core utilization improvement over SpMV.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "kernels/kernel.hpp"
#include "kernels/spmm.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

void expect_close(const mat::Dense& got, const mat::Dense& want, double tol) {
  ASSERT_EQ(got.nrows, want.nrows);
  ASSERT_EQ(got.ncols, want.ncols);
  for (mat::Index r = 0; r < got.nrows; ++r) {
    for (mat::Index c = 0; c < got.ncols; ++c) {
      ASSERT_NEAR(got.at(r, c), want.at(r, c), tol) << "(" << r << "," << c << ")";
    }
  }
}

class SpmmTest : public ::testing::TestWithParam<std::tuple<mat::Index, std::uint64_t>> {};

TEST_P(SpmmTest, CsrKernelMatchesReference) {
  const auto [k, seed] = GetParam();
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(150, 130, 2500, seed));
  const mat::Dense b = mat::random_dense(130, k, seed + 1);
  sim::Device device(sim::l40());
  const SpmmResult result = spmm_csr(device, a, b);
  expect_close(result.c, mat::spmm_reference(a, b), spmm_tolerance(a, false));
}

TEST_P(SpmmTest, SpadenKernelMatchesReference) {
  const auto [k, seed] = GetParam();
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(150, 130, 2500, seed + 50));
  const mat::Dense b = mat::random_dense(130, k, seed + 51);
  sim::Device device(sim::l40());
  const SpmmResult result = spmm_spaden(device, a, b);
  expect_close(result.c, mat::spmm_reference(a, b), spmm_tolerance(a, true));
}

// Spaden's last 16-column tile holds 1 (k = 17, 33), 8 (k = 24, no second
// column half) or 9 (k = 25, a partly live second half) live columns; k = 65
// runs a second warp per block-row pair past kSpmmRhsPerWarp.
INSTANTIATE_TEST_SUITE_P(
    WidthsAndSeeds, SpmmTest,
    ::testing::Combine(::testing::Values<mat::Index>(1, 7, 8, 16, 17, 24, 25, 33, 65),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(Spmm, SpadenHandlesDatasetStructure) {
  const mat::Csr a = mat::load_dataset("cant", 0.01);
  const mat::Dense b = mat::random_dense(a.ncols, 16, 3);
  sim::Device device(sim::l40());
  const SpmmResult result = spmm_spaden(device, a, b);
  expect_close(result.c, mat::spmm_reference(a, b), spmm_tolerance(a, true));
}

TEST(Spmm, ShapeMismatchRejected) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(16, 16, 40, 4));
  sim::Device device(sim::l40());
  EXPECT_THROW((void)spmm_csr(device, a, mat::Dense(17, 4)), spaden::Error);
  EXPECT_THROW((void)spmm_spaden(device, a, mat::Dense(17, 4)), spaden::Error);
}

TEST(Spmm, TensorCoreUtilizationBeatsSpmv) {
  // The §7 motivation: with a dense B, a fragment's useful work per MMA is
  // 8 columns instead of SpMV's 1. MMA count per B column must drop ~8x
  // between k=8 (one tile) and 8 separate SpMVs.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(256, 256, 6000, 5));
  const mat::Dense b = mat::random_dense(256, 8, 6);
  sim::Device device(sim::l40());
  const SpmmResult spmm = spmm_spaden(device, a, b);
  // One 8-column tile costs the same MMA count as a single SpMV pass.
  auto kernel = make_kernel(Method::Spaden);
  sim::Device device2(sim::l40());
  kernel->prepare(device2, a);
  std::vector<float> x(a.ncols, 1.0f);
  auto xb = device2.memory().upload(x);
  auto y = device2.memory().alloc<float>(a.nrows);
  const auto spmv = kernel->run(device2, xb.cspan(), y.span());
  EXPECT_EQ(spmm.launch.stats.tc_mma_m16n16k16, spmv.stats.tc_mma_m16n16k16);
}

TEST(Spmm, WideBScalesTilesLinearly) {
  // Past 8 RHS columns one MMA multiplies a 16-column tile of one block of
  // each block-row, so the MMA count is max(len1, len2) per block-row pair
  // times ceil(k/16): k=32 is 2 tiles against k=16's 1. Up to 8 columns
  // one MMA holds two blocks of each block-row: ceil(max(len1, len2) / 2).
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(128, 128, 2000, 7));
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  std::uint64_t iterations = 0;
  std::uint64_t four_slot_mmas = 0;
  for (mat::Index br = 0; br < bb.brows; br += 2) {
    const mat::Index longest = std::max(bb.block_row_ptr[br + 1] - bb.block_row_ptr[br],
                                        bb.block_row_ptr[br + 2] - bb.block_row_ptr[br + 1]);
    iterations += longest;
    four_slot_mmas += (longest + 1) / 2;
  }
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  sim::Device d3(sim::l40());
  const auto k8 = spmm_spaden(d1, a, mat::random_dense(128, 8, 8));
  const auto k16 = spmm_spaden(d2, a, mat::random_dense(128, 16, 8));
  const auto k32 = spmm_spaden(d3, a, mat::random_dense(128, 32, 8));
  EXPECT_EQ(k8.launch.stats.tc_mma_m16n16k16, four_slot_mmas);
  EXPECT_EQ(k16.launch.stats.tc_mma_m16n16k16, iterations);
  EXPECT_EQ(k32.launch.stats.tc_mma_m16n16k16, 2 * iterations);
}

}  // namespace
}  // namespace spaden::kern
