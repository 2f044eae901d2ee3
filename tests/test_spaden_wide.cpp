// Spaden-16 (bitBSR16 tensor-core kernel): launch shape, MMA accounting and
// its relationship to the paired 8x8 kernel, beyond the generic
// correctness sweep.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "kernels/kernel.hpp"
#include "kernels/segments.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/bitbsr_wide.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

sim::LaunchResult run_once(Method m, const mat::Csr& a, sim::Device& device) {
  auto kernel = make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.2f - 0.003f * static_cast<float>(i % 200);
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  return kernel->run(device, xb.cspan(), y.span());
}

TEST(SpadenWide, OneWarpPer16RowBlockRowOneMmaPerBlock) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const mat::BitBsr16 bb = mat::BitBsr16::from_csr(a);
  sim::Device device(sim::l40());
  const auto result = run_once(Method::SpadenWide, a, device);
  EXPECT_EQ(result.stats.warps_launched, bb.brows);
  EXPECT_EQ(result.stats.tc_mma_m16n16k16, bb.num_blocks());
}

TEST(SpadenWide, SameRowsPerWarpAsPairedKernel) {
  // Both kernels output 16 rows per warp: Spaden-16's warp count is the
  // paired kernel's pair count (up to the odd block-row the paired kernel
  // pads). The paired kernel's segment plan then cuts conf5's long pairs
  // at 0.02 across more warps; Spaden-16 has no plan.
  const mat::Csr a = mat::load_dataset("conf5", 0.02);
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  const auto wide = run_once(Method::SpadenWide, a, d1);
  const auto paired = run_once(Method::Spaden, a, d2);
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  EXPECT_EQ(wide.stats.warps_launched, (bb.brows + 1) / 2);
  EXPECT_EQ(paired.stats.warps_launched,
            plan_segments(unit_iterations(bb, true)).segments.size());
  EXPECT_EQ(paired.stats.warps_launched, 2 * wide.stats.warps_launched);
}

TEST(SpadenWide, FewerMmasOnClusteredStructure) {
  // Wider blocks merge neighbours: on a banded matrix the 16x16 grid has
  // fewer non-empty blocks than half the 8x8 count, so Spaden-16's one MMA
  // per block is fewer than the paper's Fig. 5 pairing, max(len1, len2)
  // per block-row pair. The paired kernel holds two blocks of each
  // block-row per MMA, ceil(max(len1, len2) / 2), which on this matrix
  // ties Spaden-16.
  const mat::Csr a = mat::Csr::from_coo(mat::banded(2048, 12, 0.8, 5));
  const mat::BitBsr b8 = mat::BitBsr::from_csr(a);
  const mat::BitBsr16 b16 = mat::BitBsr16::from_csr(a);
  ASSERT_LT(2 * b16.num_blocks(), b8.num_blocks());
  std::uint64_t fig5_mmas = 0;
  std::uint64_t four_slot_mmas = 0;
  for (mat::Index br = 0; br < b8.brows; br += 2) {
    const mat::Index longest = std::max(b8.block_row_ptr[br + 1] - b8.block_row_ptr[br],
                                        b8.block_row_ptr[br + 2] - b8.block_row_ptr[br + 1]);
    fig5_mmas += longest;
    four_slot_mmas += (longest + 1) / 2;
  }
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  const auto wide = run_once(Method::SpadenWide, a, d1);
  const auto paired = run_once(Method::Spaden, a, d2);
  EXPECT_EQ(wide.stats.tc_mma_m16n16k16, b16.num_blocks());
  EXPECT_EQ(paired.stats.tc_mma_m16n16k16, four_slot_mmas);
  EXPECT_LT(wide.stats.tc_mma_m16n16k16, fig5_mmas);
}

TEST(SpadenWide, LoadsOnlyNonzeroValues) {
  // The §4.3.3 property carries over to the wide decode: per-lane value
  // loads equal nnz, not block capacity.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(512, 512, 8000, 7));
  sim::Device device(sim::l40());
  const auto result = run_once(Method::SpadenWide, a, device);
  // lane_loads = metadata scalar loads + x loads + exactly nnz value loads.
  const mat::BitBsr16 bb = mat::BitBsr16::from_csr(a);
  const std::uint64_t x_loads = bb.num_blocks() * 8 * sim::kWarpSize;  // 8 B-gathers/block
  const std::uint64_t metadata = bb.num_blocks() /*one packed header*/ +
                                 bb.brows * 2 /*row ptrs*/;
  EXPECT_EQ(result.stats.lane_loads, a.nnz() + x_loads + metadata);
}

TEST(SpadenWide, HandlesPartialEdgeBlocks) {
  // nrows = 23: one 16-block-row plus a partial one covering 7 rows.
  mat::Coo coo;
  coo.nrows = 23;
  coo.ncols = 23;
  for (mat::Index r = 0; r < 23; ++r) {
    for (mat::Index k = 0; k < 3; ++k) {
      coo.row.push_back(r);
      coo.col.push_back((r * 7 + k * 5) % 23);
      coo.val.push_back(0.5f);
    }
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::SpadenWide);
  kernel->prepare(device, a);
  EXPECT_TRUE(verify_kernel(*kernel, device, a).ok());
}

TEST(SpadenWide, FootprintIsBitBsr16) {
  const mat::Csr a = mat::load_dataset("rma10", 0.02);
  const mat::BitBsr16 bb = mat::BitBsr16::from_csr(a);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::SpadenWide);
  kernel->prepare(device, a);
  EXPECT_EQ(kernel->footprint().total_bytes(), bb.footprint_bytes());
}

}  // namespace
}  // namespace spaden::kern
