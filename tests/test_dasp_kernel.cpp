// DASP-baseline specifics: row categorization, the m8n8k4 tile path, the
// 8-vs-16 rows-per-MMA relationship to Spaden, and the Volta-shape penalty.
#include <gtest/gtest.h>

#include "kernels/kernel.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

sim::LaunchResult run_once(Method m, const mat::Csr& a, sim::Device& device) {
  auto kernel = make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.05f * static_cast<float>(i % 13) - 0.3f;
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  return kernel->run(device, xb.cspan(), y.span());
}

TEST(DaspKernel, IssuesM8n8k4NotM16n16k16) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  sim::Device device(sim::v100());
  const auto result = run_once(Method::Dasp, a, device);
  EXPECT_GT(result.stats.tc_mma_m8n8k4, 0u);
  EXPECT_EQ(result.stats.tc_mma_m16n16k16, 0u);
}

TEST(DaspKernel, MmaCountMatchesPaddedTiling) {
  // Uniform rows of length 16 -> each group of 8 rows needs exactly 4
  // chunks of k=4, no padding variance.
  mat::Coo coo;
  coo.nrows = 64;
  coo.ncols = 64;
  for (mat::Index r = 0; r < 64; ++r) {
    for (mat::Index k = 0; k < 16; ++k) {
      coo.row.push_back(r);
      coo.col.push_back((r + k * 4) % 64);
      coo.val.push_back(0.5f);
    }
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device device(sim::v100());
  const auto result = run_once(Method::Dasp, a, device);
  EXPECT_EQ(result.stats.tc_mma_m8n8k4, 64u / 8u * 4u);
}

TEST(DaspKernel, EightRowsPerWarpIsHalfOfSpadens) {
  // Paper §4.3: Spaden yields 16 meaningful results per tensor-core pass,
  // "a double of DASP's throughput" — DASP groups 8 rows per warp, Spaden
  // pairs two 8-row block-rows per warp.
  mat::Coo coo;
  const mat::Index n = 128;
  coo.nrows = n;
  coo.ncols = n;
  for (mat::Index r = 0; r < n; ++r) {
    const mat::Index base = r / 8 * 8;  // stay inside 4 aligned blocks
    for (mat::Index k = 0; k < 32; ++k) {
      coo.row.push_back(r);
      coo.col.push_back((base + k) % n);
      coo.val.push_back(0.25f);
    }
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device d1(sim::v100());
  sim::Device d2(sim::v100());
  const auto dasp = run_once(Method::Dasp, a, d1);
  const auto spaden = run_once(Method::Spaden, a, d2);
  // Spaden: one warp per 16 rows. DASP: the TC pass alone launches one warp
  // per 8 rows (its total includes the zero-fill pass, so compare per-MMA
  // row coverage instead): every DASP MMA covers 8 rows x 4 slots, every
  // Spaden MMA covers 16 rows x 16 columns (two blocks of each block-row)
  // — 2x the rows, 4x the depth.
  EXPECT_EQ(spaden.stats.warps_launched, n / 16);
  const double dasp_mma_rows = 8.0;
  const double spaden_mma_rows = 16.0;
  EXPECT_EQ(spaden_mma_rows / dasp_mma_rows, 2.0);
  // Sanity: MMA counts consistent with tiling: DASP ceil(32/4)=8 per group,
  // Spaden 4 full blocks per block-row, 2 per MMA: ceil(4/2) per pair.
  EXPECT_EQ(dasp.stats.tc_mma_m8n8k4, n / 8 * 8);
  EXPECT_EQ(spaden.stats.tc_mma_m16n16k16, n / 16 * 2);
}

TEST(DaspKernel, ShortRowsTakeCudaCorePath) {
  // Every row strictly shorter than the threshold (3 nnz each): no
  // tensor-core work at all.
  mat::Coo coo;
  coo.nrows = 500;
  coo.ncols = 500;
  for (mat::Index r = 0; r < 500; ++r) {
    for (mat::Index k = 0; k < 3; ++k) {
      coo.row.push_back(r);
      coo.col.push_back((r * 17 + k * 113) % 500);
      coo.val.push_back(0.5f);
    }
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device device(sim::v100());
  const auto result = run_once(Method::Dasp, a, device);
  EXPECT_EQ(result.stats.tc_mma_m8n8k4, 0u);
  EXPECT_GT(result.stats.atomic_lane_ops, 0u);  // short path accumulates atomically
}

TEST(DaspKernel, MixedShortAndLongRowsCorrect) {
  mat::Coo coo;
  coo.nrows = 100;
  coo.ncols = 600;
  for (mat::Index r = 0; r < 100; ++r) {
    const mat::Index len = r % 3 == 0 ? 2u : 37u;  // below/above threshold
    for (mat::Index k = 0; k < len; ++k) {
      coo.row.push_back(r);
      coo.col.push_back((r * 11 + k * 5) % 600);
      coo.val.push_back(0.1f + 0.01f * static_cast<float>(k % 9));
    }
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Dasp);
  kernel->prepare(device, a);
  EXPECT_TRUE(verify_kernel(*kernel, device, a).ok());
}

TEST(DaspKernel, PreprocessingCostlierThanSpadens) {
  // Fig. 10a: DASP has the highest conversion time (sort + pad + reorder).
  const mat::Csr a = mat::load_dataset("consph", 0.05);
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  auto dasp = make_kernel(Method::Dasp);
  auto csr = make_kernel(Method::CusparseCsr);
  dasp->prepare(d1, a);
  csr->prepare(d2, a);
  EXPECT_GT(dasp->prep_seconds(), csr->prep_seconds());
}

TEST(DaspKernel, FootprintIncludesPadding) {
  // Padded half values + 4-byte columns exceed Spaden's 2.85 B/nnz
  // footprint but not BSR's explosion (Fig. 10b's ordering).
  const mat::Csr a = mat::load_dataset("shipsec1", 0.02);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Dasp);
  kernel->prepare(device, a);
  const double bpn = kernel->footprint().bytes_per_nnz(a.nnz());
  EXPECT_GT(bpn, 6.0);
  EXPECT_LT(bpn, 20.0);
}

TEST(DaspKernel, FasterOnV100ThanL40RelativeToCsr) {
  // The paper's architecture story: DASP's mma.m8n8k4 is Volta-optimized.
  // Compare DASP/CSR throughput ratios across devices.
  const mat::Csr a = mat::load_dataset("pdb1HYS", 0.05);
  double ratio[2];
  int i = 0;
  for (const auto& spec : {sim::l40(), sim::v100()}) {
    sim::Device d1(spec);
    sim::Device d2(spec);
    const auto dasp = run_once(Method::Dasp, a, d1);
    const auto csr = run_once(Method::CusparseCsr, a, d2);
    ratio[i++] = csr.seconds() / dasp.seconds();
  }
  EXPECT_GT(ratio[1], ratio[0]);  // V100 relatively kinder to DASP
}

}  // namespace
}  // namespace spaden::kern
