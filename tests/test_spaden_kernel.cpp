// Spaden-kernel-specific behaviour: the pairing structure (§4.3), the
// counter profile its advantages rest on, and the TC / no-TC relationship
// (Fig. 8's breakdown).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "kernels/bitbsr_decode.hpp"
#include "kernels/formats_device.hpp"
#include "kernels/kernel.hpp"
#include "kernels/segments.hpp"
#include "kernels/spmm.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

sim::LaunchResult run_once(Method m, const mat::Csr& a, sim::Device& device) {
  auto kernel = make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols, 1.0f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.1f + static_cast<float>(i % 7) * 0.1f;
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  return kernel->run(device, xb.cspan(), y.span());
}

/// MMAs of the block walk over every block-row pair: ceil(max(len1, len2)
/// / per_mma) per pair, where per_mma is the blocks of each block-row one
/// MMA holds (2 in the four-slot layout, 1 in the paper's Fig. 5 layout).
/// The last block-row of an odd count pairs with an empty one.
std::uint64_t pair_mmas(const mat::BitBsr& bb, mat::Index per_mma) {
  std::uint64_t mmas = 0;
  for (mat::Index br = 0; br < bb.brows; br += 2) {
    const mat::Index len1 = bb.block_row_ptr[br + 1] - bb.block_row_ptr[br];
    const mat::Index len2 =
        br + 1 < bb.brows ? bb.block_row_ptr[br + 2] - bb.block_row_ptr[br + 1] : 0;
    mmas += (std::max(len1, len2) + per_mma - 1) / per_mma;
  }
  return mmas;
}

TEST(SpadenKernel, OneMmaPerBlockRowPairIteration) {
  // Each warp covers two block-rows and each MMA holds two blocks of each
  // (four 8x8 blocks per m16n16k16 fragment), so a warp issues
  // ceil(max(len1, len2) / 2) MMAs: half the paper's Fig. 5 count.
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  ASSERT_EQ(bb.brows % 2, 1u);  // the last block-row runs unpaired
  sim::Device device(sim::l40());
  const auto result = run_once(Method::Spaden, a, device);
  EXPECT_EQ(result.stats.tc_mma_m16n16k16, pair_mmas(bb, 2));
  // The ablation baseline keeps one block of one block-row per MMA.
  sim::Device unpaired_device(sim::l40());
  EXPECT_EQ(run_once(Method::SpadenUnpaired, a, unpaired_device).stats.tc_mma_m16n16k16,
            bb.num_blocks());
}

/// Segment counts of a plan over units of `iterations`, by a plain
/// scan: one per unit; below kFillWarps warps, one more for the unit whose
/// segments are longest (the lowest on a tie) among those over
/// kMinSegmentIterations that one more segment leaves at least
/// kShortestSegment long, until the launch holds kFillWarps warps or no
/// unit qualifies.
std::vector<mat::Index> reference_counts(const std::vector<mat::Index>& iterations) {
  std::vector<mat::Index> counts(iterations.size(), 1);
  for (std::uint64_t warps = counts.size(); warps < kFillWarps; ++warps) {
    std::optional<std::size_t> best;
    std::uint64_t longest = 0;
    for (std::size_t u = 0; u < counts.size(); ++u) {
      const std::uint64_t it = iterations[u];
      const std::uint64_t seg = (it + counts[u] - 1) / counts[u];
      if (it > kMinSegmentIterations && it / (counts[u] + 1) >= kShortestSegment &&
          (!best || seg > longest)) {
        best = u;
        longest = seg;
      }
    }
    if (!best) {
      break;
    }
    ++counts[*best];
  }
  return counts;
}

/// Warps of a segment plan over units of `iterations`.
std::uint64_t plan_warps(const std::vector<mat::Index>& iterations) {
  std::uint64_t warps = 0;
  for (const mat::Index c : reference_counts(iterations)) {
    warps += c;
  }
  return warps;
}

TEST(SpadenKernel, SixteenRowsPerWarp) {
  // "16 rows from the original matrix are processed in parallel by every
  // tensor core": one warp per block-row pair, ceil(brows/2) =
  // ceil(nrows/16), on a device the pairs fill. conf5 at 0.02 has 62 pairs
  // of 9 iterations, so its segment plan cuts each in two (4 + 5; a third
  // segment would be shorter than kShortestSegment) and launches 124
  // warps, each still over the 16 rows of one pair.
  const mat::Csr a = mat::load_dataset("conf5", 0.02);
  sim::Device device(sim::l40());
  const auto result = run_once(Method::Spaden, a, device);
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  ASSERT_EQ((bb.brows + 1) / 2, 62u);
  EXPECT_EQ(result.stats.warps_launched, plan_warps(unit_iterations(bb, true)));
  EXPECT_EQ(result.stats.warps_launched, 124u);
}

TEST(SpadenKernel, LoadsOnlyNonzeroValues) {
  // §4.3.3: zeros are computed, not loaded. Per-lane loads must track nnz,
  // not block capacity: compare a sparse-block and a dense-block matrix of
  // identical block counts.
  mat::MatrixProfile sparse_p{"sp", 2048, 16'000, 2'000, 1, 0, 0, 0.8, 0.05};
  mat::MatrixProfile dense_p{"dn", 2048, 120'000, 2'000, 0, 0, 1, 0.8, 0.05};
  const mat::Csr sparse_m = mat::synthesize(sparse_p, 1.0, 1);
  const mat::Csr dense_m = mat::synthesize(dense_p, 1.0, 1);

  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  const auto sparse_run = run_once(Method::Spaden, sparse_m, d1);
  const auto dense_run = run_once(Method::Spaden, dense_m, d2);
  // Identical block structure => identical MMA count...
  EXPECT_NEAR(static_cast<double>(sparse_run.stats.tc_mma_m16n16k16),
              static_cast<double>(dense_run.stats.tc_mma_m16n16k16),
              static_cast<double>(dense_run.stats.tc_mma_m16n16k16) * 0.05);
  // ...but value loads scale with nnz, not with blocks. (x-segment and
  // metadata loads are identical, so the total lane-load gap is diluted:
  // per block the sparse matrix loads 8 values vs the dense one's 60.)
  EXPECT_LT(static_cast<double>(sparse_run.stats.lane_loads),
            0.62 * static_cast<double>(dense_run.stats.lane_loads));
}

TEST(SpadenKernel, NoTcVariantMatchesTcNumerically) {
  // Both variants decode the same bitBSR; results agree to fp32 rounding
  // (TC converts x to half, so allow the half-rounding tolerance).
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(256, 256, 8000, 21));
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());

  auto tc = make_kernel(Method::Spaden);
  auto no_tc = make_kernel(Method::SpadenNoTc);
  tc->prepare(d1, a);
  no_tc->prepare(d2, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = -0.4f + static_cast<float>(i % 11) * 0.07f;
  }
  auto x1 = d1.memory().upload(x);
  auto x2 = d2.memory().upload(x);
  auto y1 = d1.memory().alloc<float>(a.nrows);
  auto y2 = d2.memory().alloc<float>(a.nrows);
  (void)tc->run(d1, x1.cspan(), y1.span());
  (void)no_tc->run(d2, x2.cspan(), y2.span());
  for (mat::Index r = 0; r < a.nrows; ++r) {
    EXPECT_NEAR(y1.host()[r], y2.host()[r], 0.02) << "row " << r;
  }
}

TEST(SpadenKernel, NoTcVariantIssuesNoMmas) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  sim::Device device(sim::l40());
  const auto result = run_once(Method::SpadenNoTc, a, device);
  EXPECT_EQ(result.stats.tc_mma_m16n16k16, 0u);
  EXPECT_EQ(result.stats.tc_mma_m8n8k4, 0u);
}

TEST(SpadenKernel, HandlesOddBlockRowCount) {
  // nrows = 24 -> 3 block-rows: the last warp has an empty second slot.
  mat::Coo coo;
  coo.nrows = 24;
  coo.ncols = 24;
  for (mat::Index r = 0; r < 24; ++r) {
    coo.row.push_back(r);
    coo.col.push_back((r * 5) % 24);
    coo.val.push_back(0.5f);
    coo.row.push_back(r);
    coo.col.push_back((r * 7 + 3) % 24);
    coo.val.push_back(0.25f);
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  EXPECT_TRUE(verify_kernel(*kernel, device, a).ok());
}

TEST(SpadenKernel, HandlesRaggedBlockRowLengths) {
  // Pair a long block-row with an empty one: the empty slot must contribute
  // zeros for every iteration.
  mat::Coo coo;
  coo.nrows = 16;
  coo.ncols = 512;
  for (mat::Index c = 0; c < 512; c += 4) {
    coo.row.push_back(2);  // block-row 0 only
    coo.col.push_back(c);
    coo.val.push_back(0.5f);
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  EXPECT_TRUE(verify_kernel(*kernel, device, a).ok());
}

TEST(SpadenKernel, FootprintIsBitBsrExactly) {
  const mat::Csr a = mat::load_dataset("pdb1HYS", 0.02);
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  EXPECT_EQ(kernel->footprint().total_bytes(), bb.footprint_bytes());
}

TEST(SpadenKernel, FewerWavefrontsThanBsrOnSparseBlocks) {
  // The §5.3 story: bitBSR eliminates the zero-element traffic BSR pays.
  const mat::Csr a = mat::load_dataset("Si41Ge41H72", 0.01);
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  const auto spaden = run_once(Method::Spaden, a, d1);
  const auto bsr = run_once(Method::CusparseBsr, a, d2);
  EXPECT_LT(spaden.stats.wavefronts, bsr.stats.wavefronts);
  EXPECT_LT(spaden.stats.l2_bytes(), bsr.stats.l2_bytes());
}

TEST(SpadenKernel, MoreCoalescedThanCsrWarp16) {
  // Fig. 8: same 16-rows-per-warp granularity, drastically different
  // coalescing. Wavefronts per useful byte must be far lower for Spaden.
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  sim::Device d1(sim::l40());
  sim::Device d2(sim::l40());
  const auto spaden = run_once(Method::Spaden, a, d1);
  const auto warp16 = run_once(Method::CsrWarp16, a, d2);
  EXPECT_LT(2 * spaden.stats.wavefronts, warp16.stats.wavefronts);
}

// ----- per-block loads of the SpMV decode ----------------------------------

TEST(SpadenKernel, DecodeIssuesOneHeaderAndOnePairedXLoadPerBlock) {
  // ncols % 8 == 0, so every block takes the paired x path. Per decoded
  // block the "decode" range issues one broadcast header load, a value
  // gather for each of the bitmap's even and odd bit sets that is nonempty,
  // and one paired x load: 32 lanes of 8 bytes, one sector.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(100, 96, 1400, 11));
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  std::uint64_t value_gathers = 0;
  for (const std::uint64_t bmp : bb.bitmap) {
    value_gathers += (bmp & 0x5555'5555'5555'5555ull) != 0 ? 1 : 0;
    value_gathers += (bmp & 0xAAAA'AAAA'AAAA'AAAAull) != 0 ? 1 : 0;
  }
  const std::uint64_t blocks = bb.num_blocks();
  sim::Device device(sim::l40());
  device.set_profile(true);
  const sim::LaunchResult run = run_once(Method::Spaden, a, device);
  const sim::RangeProfile* range = nullptr;
  for (const sim::RangeProfile& r : run.profile.ranges) {
    range = r.name == "decode" ? &r : range;
  }
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->invocations, blocks);
  EXPECT_EQ(range->stats.mem_instructions, 2 * blocks + value_gathers);
  EXPECT_EQ(range->stats.lane_loads, blocks + a.nnz() + 32 * blocks);

  // The block decode alone: one header load (one sector) plus the value
  // gathers, so the rest of the range is one x sector per block.
  const DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), bb);
  const sim::LaunchResult decode =
      device.launch("decode_only", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
        for (std::size_t b = 0; b < blocks; ++b) {
          (void)decode_bitbsr_block(ctx, dev_bb, static_cast<mat::Index>(b), nullptr);
        }
      });
  EXPECT_EQ(decode.stats.mem_instructions, blocks + value_gathers);
  EXPECT_EQ(range->stats.wavefronts - decode.stats.wavefronts, blocks);
}

TEST(SpadenKernel, XEdgeSegmentsReadNothingPastX) {
  // ncols % 8 in {1, 7} and ncols < 8: the last block column's x segment
  // extends past x. Every variant's y stays within tolerance of the fp64
  // reference and the sanitizer (SPADEN_SANCHECK) sees no access past x.
  // A stack column at an odd offset (not 8-byte aligned) takes the same
  // single-load path.
  for (const mat::Index ncols : {57u, 63u, 5u}) {
    const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(40, ncols, 4 * ncols, ncols));
    std::vector<float> x(ncols);
    for (mat::Index i = 0; i < ncols; ++i) {
      x[i] = -0.9f + 0.11f * static_cast<float>(i % 17);
    }
    const std::vector<double> y_ref = spmv_reference(a, x);
    const double tol = spmv_tolerance(a, /*half_precision_values=*/true);
    for (const Method m : {Method::Spaden, Method::SpadenNoTc, Method::SpadenConventional,
                           Method::SpadenUnpaired}) {
      for (const std::size_t offset : {0u, 1u}) {
        SCOPED_TRACE(testing::Message() << "ncols=" << ncols << " " << method_name(m)
                                        << " offset=" << offset);
        sim::Device device(sim::l40());
        device.set_sanitize(true);
        auto kernel = make_kernel(m);
        kernel->prepare(device, a);
        std::vector<float> padded(offset, 0.0f);
        padded.insert(padded.end(), x.begin(), x.end());
        auto xb = device.memory().upload(padded, "x");
        auto yb = device.memory().alloc<float>(a.nrows, "y");
        const sim::LaunchResult r =
            kernel->run(device, xb.cspan().subspan(offset, ncols), yb.span());
        EXPECT_TRUE(r.sanitizer.clean()) << r.sanitizer.summary();
        for (mat::Index row = 0; row < a.nrows; ++row) {
          EXPECT_NEAR(yb.host()[row], y_ref[row], tol) << "row " << row;
        }
      }
    }
  }
}

TEST(SpadenKernel, CorruptHeaderFieldIsANamedViolation) {
  // spaden-verify reads the uploaded headers: a corrupted block_col or
  // val_offset is reported by name, not decoded into a wrong y.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 600, 13));
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  ASSERT_GT(bb.block_row_ptr[1], 1u);  // block-row 0 holds blocks 0 and 1
  const auto violated = [](const san::FormatReport& report, const std::string& name) {
    return std::any_of(report.violations.begin(), report.violations.end(),
                       [&](const san::Violation& v) { return v.invariant == name; });
  };
  sim::Device device(sim::l40());
  {
    DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), bb);
    EXPECT_TRUE(dev_bb.check(a.nrows, a.ncols).ok());
    dev_bb.headers.host()[1].block_col = dev_bb.headers.host()[0].block_col;
    const san::FormatReport report = dev_bb.check(a.nrows, a.ncols);
    EXPECT_TRUE(violated(report, "bitbsr.col-dup")) << report.summary();
  }
  {
    DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), bb);
    dev_bb.headers.host()[1].val_offset += 1;
    const san::FormatReport report = dev_bb.check(a.nrows, a.ncols);
    EXPECT_TRUE(violated(report, "bitbsr.popcount")) << report.summary();
  }
  {
    // The last header's offset is checked against the stored value count.
    DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), bb);
    dev_bb.headers.host().back().val_offset -= 1;
    const san::FormatReport report = dev_bb.check(a.nrows, a.ncols);
    EXPECT_TRUE(violated(report, "bitbsr.popcount")) << report.summary();
  }
}

// ----- fused multi-RHS SpMM (spmm_spaden_strided) --------------------------

/// One fused launch of k RHS over `a` on a profiled L40, beside a one-warp
/// launch that decodes every stored block on its own. The fused launch's
/// "decode" range minus that launch is its x loads.
struct BatchedRun {
  mat::BitBsr bb;
  sim::LaunchResult batch;
  sim::LaunchResult decode;

  [[nodiscard]] std::uint64_t pairs() const { return (bb.brows + 1) / 2; }
  [[nodiscard]] const sim::RangeProfile* range(const std::string& name) const {
    for (const sim::RangeProfile& r : batch.profile.ranges) {
      if (r.name == name) {
        return &r;
      }
    }
    return nullptr;
  }
};

BatchedRun run_batched(const mat::Csr& a, mat::Index k) {
  BatchedRun run{mat::BitBsr::from_csr(a), {}, {}};
  sim::Device device(sim::l40());
  device.set_profile(true);
  const DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), run.bb);
  auto xs = device.memory().upload(
      pack_fragment_stack(k, a.ncols,
                          [](mat::Index c, mat::Index i) {
                            return 0.01f * static_cast<float>(c + i);
                          })
          .words);
  auto ys = device.memory().alloc<float>(k * column_stride(a.nrows));
  run.batch = spmm_spaden_strided(device, dev_bb, nullptr, nullptr, xs.cspan(), ys.span(), k,
                                  a.nrows, a.ncols);
  run.decode = device.launch("decode_only", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    for (std::size_t b = 0; b < run.bb.num_blocks(); ++b) {
      (void)decode_bitbsr_block(ctx, dev_bb, static_cast<mat::Index>(b), nullptr);
    }
  });
  return run;
}

/// 101 x 97: 7 block-row pairs, ncols % 8 == 1.
mat::Csr small_ragged() { return mat::Csr::from_coo(mat::random_uniform(101, 97, 1500, 9)); }

TEST(SpadenKernel, BatchedXTileIsFourSectorsInOneLoad) {
  // ncols % 8 == 1: the last block column's x segment is one row plus 7
  // pads. Each decoded block slot loads every live 8-column group of its
  // x tile as one 32-bit gather of 32 consecutive binary16 words: 4
  // wavefronts in one instruction (one sector per 2 RHS columns), where
  // the fp32 column stack took one sector per column. The rest of the
  // "decode" range is the block decode itself, measured here by decoding
  // every stored block on its own.
  {
    const BatchedRun run = run_batched(small_ragged(), 8);
    const sim::RangeProfile* range = run.range("decode");
    ASSERT_NE(range, nullptr);
    const std::uint64_t slots = run.bb.num_blocks();
    ASSERT_GT(slots, 0u);
    EXPECT_EQ(range->invocations, slots);
    EXPECT_EQ(range->stats.mem_instructions - run.decode.stats.mem_instructions, slots);
    EXPECT_EQ(range->stats.wavefronts - run.decode.stats.wavefronts, 4 * slots);
    EXPECT_EQ(range->stats.lane_loads - run.decode.stats.lane_loads, 32 * slots);
  }
  // k = 2: the 24 lanes of columns past k are masked off and load
  // nothing, so the 8 live lanes read one sector.
  {
    const BatchedRun run = run_batched(small_ragged(), 2);
    const sim::RangeProfile* range = run.range("decode");
    ASSERT_NE(range, nullptr);
    const std::uint64_t slots = run.bb.num_blocks();
    EXPECT_EQ(range->stats.mem_instructions - run.decode.stats.mem_instructions, slots);
    EXPECT_EQ(range->stats.wavefronts - run.decode.stats.wavefronts, slots);
    EXPECT_EQ(range->stats.lane_loads - run.decode.stats.lane_loads, 8 * slots);
  }
  // A full 16-column tile fills both column halves of the slot's B
  // portions: two loads, 4 sectors each.
  const BatchedRun run = run_batched(small_ragged(), 16);
  ASSERT_EQ(run.batch.stats.warps_launched, run.pairs());
  const sim::RangeProfile* range = run.range("decode");
  ASSERT_NE(range, nullptr);
  const std::uint64_t slots = run.bb.num_blocks();
  EXPECT_EQ(range->invocations, slots);
  EXPECT_EQ(range->stats.mem_instructions - run.decode.stats.mem_instructions, 2 * slots);
  EXPECT_EQ(range->stats.wavefronts - run.decode.stats.wavefronts, 8 * slots);
  EXPECT_EQ(range->stats.lane_loads - run.decode.stats.lane_loads, 64 * slots);
}

TEST(SpadenKernel, BatchedIsSequentialSpmvsAtEveryWidth) {
  // On a ragged matrix (last block column partial), each batch width runs
  // the binary16 fragment stack through SpadenKernel's upload_batch and
  // run_multi. Every output column must be byte-identical to one run()
  // on that column, and the x loads per decoded block must be one sector
  // per 2 live RHS columns of each 8-column group, summed over the
  // kSpmmRhsPerWarp-column warps that decode the block.
  const mat::Csr a = small_ragged();
  struct Width {
    mat::Index k;
    std::uint64_t x_wavefronts;  ///< per stored block, over all its warps
  };
  for (const Width w : {Width{2, 1}, Width{5, 3}, Width{8, 4}, Width{9, 5}, Width{16, 8},
                        Width{17, 9}, Width{21, 11}, Width{32, 16}, Width{33, 17},
                        Width{64, 32}, Width{65, 33}}) {
    SCOPED_TRACE(testing::Message() << "k=" << w.k);
    std::vector<std::vector<float>> xs(w.k, std::vector<float>(a.ncols));
    std::vector<const std::vector<float>*> ptrs;
    for (mat::Index c = 0; c < w.k; ++c) {
      for (mat::Index i = 0; i < a.ncols; ++i) {
        xs[c][i] = 0.37f * static_cast<float>((3 * c + 5 * i) % 23) - 4.1f;
      }
      ptrs.push_back(&xs[c]);
    }
    sim::Device device(sim::l40());
    device.set_sim_threads(1);
    auto kernel = make_kernel(Method::Spaden);
    kernel->prepare(device, a);
    const XBatch batch = kernel->upload_batch(device, ptrs);
    ASSERT_TRUE(batch.fragments);
    auto ys = device.memory().alloc<float>(w.k * column_stride(a.nrows));
    (void)kernel->run_multi(device, batch, ys.span());
    for (mat::Index c = 0; c < w.k; ++c) {
      auto x = device.memory().upload(xs[c]);
      auto y = device.memory().alloc<float>(a.nrows);
      (void)kernel->run(device, x.cspan(), y.span());
      const std::span<const float> batched = stack_column(ys.host(), a.nrows, c);
      ASSERT_EQ(std::memcmp(batched.data(), y.host().data(), a.nrows * sizeof(float)), 0)
          << "column " << c;
    }

    const BatchedRun run = run_batched(a, w.k);
    const sim::RangeProfile* range = run.range("decode");
    ASSERT_NE(range, nullptr);
    const std::uint64_t warps_per_pair = (w.k + kSpmmRhsPerWarp - 1) / kSpmmRhsPerWarp;
    EXPECT_EQ(range->stats.wavefronts - warps_per_pair * run.decode.stats.wavefronts,
              w.x_wavefronts * run.bb.num_blocks());
    EXPECT_EQ(range->stats.mem_instructions - warps_per_pair * run.decode.stats.mem_instructions,
              (w.k + 7) / 8 * run.bb.num_blocks());
  }
}

TEST(SpadenKernel, BatchedDecodesEachBlockOncePerWarp) {
  // k = 32: one warp per pair decodes each stored block once and reuses
  // the A fragment for both 16-column tiles, where 8-column tile warps
  // would decode every block 4 times. k = 65 adds a second warp per pair
  // for the column past kSpmmRhsPerWarp, which decodes every block again.
  for (const mat::Index k : {32u, 65u}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const BatchedRun run = run_batched(small_ragged(), k);
    const std::uint64_t warps_per_pair = (k + kSpmmRhsPerWarp - 1) / kSpmmRhsPerWarp;
    EXPECT_EQ(run.batch.stats.warps_launched, run.pairs() * warps_per_pair);
    const sim::RangeProfile* range = run.range("decode");
    ASSERT_NE(range, nullptr);
    EXPECT_EQ(range->invocations, run.bb.num_blocks() * warps_per_pair);
  }
}

TEST(SpadenKernel, BatchedMmaCountIsPairIterationsTimesSixteenColumnTiles) {
  // A warp with at most 8 live RHS columns walks two blocks of each
  // block-row per MMA, like the SpMV; a wider warp walks one and issues
  // one MMA per 16-column tile.
  const mat::Csr a = small_ragged();
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  for (const mat::Index k : {8u, 16u, 17u, 32u}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const BatchedRun run = run_batched(a, k);
    ASSERT_EQ(run.batch.stats.warps_launched, run.pairs());
    const std::uint64_t expected = k <= 8 ? pair_mmas(bb, 2) : pair_mmas(bb, 1) * ((k + 15) / 16);
    EXPECT_EQ(run.batch.stats.tc_mma_m16n16k16, expected);
  }
}

/// Block-rows of the given lengths over 77 columns (10 block columns, the
/// last partial): block b of block-row br sits in block column
/// (2b + br) % 10 and holds one entry per row, so block-rows 2p and 2p + 1
/// form pair p with lengths (lens[2p], lens[2p + 1]).
mat::Csr block_rows_of_lengths(const std::vector<mat::Index>& lens) {
  constexpr mat::Index kCols = 77;
  mat::Coo coo;
  coo.nrows = static_cast<mat::Index>(8 * lens.size()) - 3;  // last block-row partial
  coo.ncols = kCols;
  for (mat::Index r = 0; r < coo.nrows; ++r) {
    const mat::Index br = r / 8;
    for (mat::Index b = 0; b < lens[br]; ++b) {
      const mat::Index bc = (2 * b + br) % 10;
      coo.row.push_back(r);
      coo.col.push_back(8 * bc + (3 * r + b) % std::min<mat::Index>(8, kCols - 8 * bc));
      coo.val.push_back(0.25f + 0.125f * static_cast<float>((r + b) % 5));
    }
  }
  return mat::Csr::from_coo(coo);
}

TEST(SpadenKernel, FourSlotWalkOnRaggedPairs) {
  // Pairs of lengths (odd, even), (0, n) and (n, 0), then the unpaired
  // last block-row (partial): y from run() equals the fp64 reference
  // within tolerance, every batch width's columns are byte-identical to
  // run() on that column, and the MMA counts follow the walk.
  const mat::Csr a = block_rows_of_lengths({3, 4, 0, 5, 5, 0, 3});
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  ASSERT_EQ(bb.brows, 7u);
  ASSERT_EQ(bb.num_blocks(), 20u);
  for (const mat::Index k : {1u, 2u, 7u, 8u, 9u}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    std::vector<std::vector<float>> xs(k, std::vector<float>(a.ncols));
    std::vector<const std::vector<float>*> ptrs;
    for (mat::Index c = 0; c < k; ++c) {
      for (mat::Index i = 0; i < a.ncols; ++i) {
        xs[c][i] = 0.29f * static_cast<float>((5 * c + 3 * i) % 19) - 2.6f;
      }
      ptrs.push_back(&xs[c]);
    }
    sim::Device device(sim::l40());
    auto kernel = make_kernel(Method::Spaden);
    kernel->prepare(device, a);
    const XBatch batch = kernel->upload_batch(device, ptrs);
    ASSERT_TRUE(batch.fragments);
    auto ys = device.memory().alloc<float>(k * column_stride(a.nrows));
    const sim::LaunchResult fused = kernel->run_multi(device, batch, ys.span());
    EXPECT_EQ(fused.stats.tc_mma_m16n16k16, k <= 8 ? pair_mmas(bb, 2) : pair_mmas(bb, 1));
    const double tol = spmv_tolerance(a, /*half_precision_values=*/true);
    for (mat::Index c = 0; c < k; ++c) {
      auto x = device.memory().upload(xs[c]);
      auto y = device.memory().alloc<float>(a.nrows);
      const sim::LaunchResult single = kernel->run(device, x.cspan(), y.span());
      EXPECT_EQ(single.stats.tc_mma_m16n16k16, pair_mmas(bb, 2));
      const std::vector<double> y_ref = spmv_reference(a, xs[c]);
      for (mat::Index r = 0; r < a.nrows; ++r) {
        ASSERT_NEAR(y.host()[r], y_ref[r], tol) << "column " << c << " row " << r;
      }
      const std::span<const float> batched = stack_column(ys.host(), a.nrows, c);
      ASSERT_EQ(std::memcmp(batched.data(), y.host().data(), a.nrows * sizeof(float)), 0)
          << "column " << c;
    }
  }
}

TEST(SpadenKernel, FinishedSlotNeverMultipliesItsStaleSegment) {
  // Block-row 0 holds one block, with every row's one nonzero in column 0,
  // and block-row 1 three blocks. x[0] is past binary16 range, so block-row
  // 0's rows are +inf. In the second MMA block-row 0's slots are empty: had
  // their B portions kept its x segment, 0 * inf would turn those rows
  // into NaN. Checked on run() and on the fused kernel at k = 1, which
  // takes the stack as given (upload_batch would route a non-finite batch
  // to the base path).
  mat::Coo coo;
  coo.nrows = 16;
  coo.ncols = 32;
  for (mat::Index r = 0; r < 16; ++r) {
    for (mat::Index bc = r < 8 ? 0 : 1; bc < (r < 8 ? 1u : 4u); ++bc) {
      coo.row.push_back(r);
      coo.col.push_back(r < 8 ? 0 : 8 * bc + r % 8);
      coo.val.push_back(0.5f);
    }
  }
  const mat::Csr a = mat::Csr::from_coo(coo);
  std::vector<float> x(a.ncols, 1.0f);
  x[0] = 1e6f;  // half(1e6) == +inf
  const auto check = [](const std::vector<float>& y) {
    for (mat::Index r = 0; r < 8; ++r) {
      EXPECT_EQ(y[r], std::numeric_limits<float>::infinity()) << "row " << r;
    }
    for (mat::Index r = 8; r < 16; ++r) {
      EXPECT_EQ(y[r], 1.5f) << "row " << r;
    }
  };

  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  auto xb = device.memory().upload(x);
  auto yb = device.memory().alloc<float>(a.nrows);
  const sim::LaunchResult run = kernel->run(device, xb.cspan(), yb.span());
  EXPECT_EQ(run.stats.tc_mma_m16n16k16, 2u);
  check(yb.host());

  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  const DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), bb);
  const FragmentStack stack =
      pack_fragment_stack(1, a.ncols, [&](mat::Index, mat::Index i) { return x[i]; });
  ASSERT_FALSE(stack.finite);
  auto xs = device.memory().upload(stack.words);
  auto ys = device.memory().alloc<float>(column_stride(a.nrows));
  (void)spmm_spaden_strided(device, dev_bb, nullptr, nullptr, xs.cspan(), ys.span(), 1, a.nrows,
                            a.ncols);
  check(std::vector<float>(ys.host().begin(), ys.host().begin() + a.nrows));
}

TEST(SpadenKernel, BatchedStackPastThirtyTwoBitIndicesRejected) {
  // The binary16 stack's groups * bcols * 32 words must stay below 2^32,
  // or the kernel's 32-bit lane indices would wrap to an in-bounds wrong
  // element. The shape is checked before the stack's size and before any
  // launch, so size-only spans (no backing storage) suffice.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(8, 8, 20, 3));
  sim::Device device(sim::l40());
  const DeviceBitBsr dev_bb = DeviceBitBsr::upload(device.memory(), mat::BitBsr::from_csr(a));
  constexpr mat::Index k = 128;                // 16 column groups
  constexpr mat::Index ncols = 67'108'864;     // 2^23 block columns: 2^32 words
  const sim::DSpan<float> ys{nullptr, 0, k * column_stride(a.nrows)};
  const auto attempt = [&](mat::Index n) -> std::string {
    const sim::DSpan<const HalfPair> xs{nullptr, 0, 0};
    try {
      (void)spmm_spaden_strided(device, dev_bb, nullptr, nullptr, xs, ys, k, a.nrows, n);
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::string past = attempt(ncols);
  EXPECT_NE(past.find("32-bit lane indices"), std::string::npos) << past;
  // One block column fewer fits: the shape passes, and the empty span
  // then fails the size check instead.
  const std::string fits = attempt(ncols - 8);
  EXPECT_EQ(fits.find("32-bit"), std::string::npos) << fits;
  EXPECT_NE(fits.find("fragment stack"), std::string::npos) << fits;
}

// ----- segment plans (kernels/segments.hpp) --------------------------------

TEST(SegmentPlan, EmptyAtFillWarpsUnits) {
  // At kFillWarps units the launch fills the L40 however long its units.
  std::vector<mat::Index> iterations(kFillWarps, 100);
  iterations[7] = 1000;
  EXPECT_EQ(segment_counts(iterations), std::vector<mat::Index>(kFillWarps, 1));
  EXPECT_TRUE(plan_segments(iterations).segments.empty());
  // One unit fewer: one more warp fills the device, and it goes to the
  // longest unit.
  iterations.pop_back();
  const std::vector<mat::Index> counts = segment_counts(iterations);
  EXPECT_EQ(counts[7], 2u);
  EXPECT_EQ(std::count(counts.begin(), counts.end(), 1u), kFillWarps - 2);
  const SegmentPlan plan = plan_segments(iterations);
  EXPECT_EQ(plan.segments.size(), kFillWarps);
  EXPECT_EQ(plan.slots, 2u);
  EXPECT_EQ(plan.segments.size(), plan_warps(iterations));
}

TEST(SegmentPlan, NeverLaunchesPastFillWarps) {
  // 244 pairs of 12 iterations (cant at 1/16): every pair in two, 488
  // warps, then the first 80 pairs in three, 568.
  std::vector<mat::Index> counts = segment_counts(std::vector<mat::Index>(244, 12));
  EXPECT_EQ(std::count(counts.begin(), counts.begin() + 80, 3u), 80);
  EXPECT_EQ(std::count(counts.begin() + 80, counts.end(), 2u), 244 - 80);
  EXPECT_EQ(plan_segments(std::vector<mat::Index>(244, 12)).segments.size(), kFillWarps);
  // 488 pairs of 12 (cant at 1/8): cutting every pair in two would launch
  // 976 warps where 568 fill the device; only the first 80 are cut.
  counts = segment_counts(std::vector<mat::Index>(488, 12));
  EXPECT_EQ(std::count(counts.begin(), counts.begin() + 80, 2u), 80);
  EXPECT_EQ(std::count(counts.begin() + 80, counts.end(), 1u), 488 - 80);
  EXPECT_EQ(plan_segments(std::vector<mat::Index>(488, 12)).segments.size(), kFillWarps);
  // 149 pairs of 31 (TSOPF at 1/16): every pair in three, 447 warps, then
  // the first 121 in four, 568.
  counts = segment_counts(std::vector<mat::Index>(149, 31));
  EXPECT_EQ(std::count(counts.begin(), counts.begin() + 121, 4u), 121);
  EXPECT_EQ(std::count(counts.begin() + 121, counts.end(), 3u), 149 - 121);
  // 298 pairs of 31 (TSOPF at 1/8): the first 270 in two, 28 whole.
  counts = segment_counts(std::vector<mat::Index>(298, 31));
  EXPECT_EQ(std::count(counts.begin(), counts.begin() + 270, 2u), 270);
  EXPECT_EQ(std::count(counts.begin() + 270, counts.end(), 1u), 28);
  EXPECT_EQ(plan_segments(std::vector<mat::Index>(298, 31)).segments.size(), kFillWarps);
  // Units of no iterations still run a warp each; the long unit takes the
  // other 69.
  std::vector<mat::Index> iterations(500, 0);
  iterations[0] = 1000;
  EXPECT_EQ(segment_counts(iterations)[0], 69u);
  EXPECT_EQ(plan_segments(iterations).segments.size(), kFillWarps);
  EXPECT_EQ(plan_warps(iterations), kFillWarps);
}

TEST(SegmentPlan, EmptyWhenNoUnitExceedsTheMinimumLength) {
  EXPECT_EQ(segment_counts(std::vector<mat::Index>{8, 8, 3, 0, 8}),
            (std::vector<mat::Index>{1, 1, 1, 1, 1}));
  EXPECT_TRUE(plan_segments(std::vector<mat::Index>{8, 8, 3, 0, 8}).segments.empty());
  // 9 iterations split once, into 4 + 5: a third segment would be 3 long.
  EXPECT_EQ(segment_counts(std::vector<mat::Index>{8, 9}), (std::vector<mat::Index>{1, 2}));
  const SegmentPlan plan = plan_segments(std::vector<mat::Index>{8, 9});
  ASSERT_EQ(plan.segments.size(), 3u);
  EXPECT_EQ(plan.segments[0].count, 1u);
  EXPECT_EQ(plan.segments[2].begin, 4u);
  EXPECT_EQ(plan.segments[2].end, 9u);
  // Counts of 1 never split; a row-sharded caller passes them when the
  // whole matrix fills the device.
  const std::vector<mat::Index> ones{1, 1};
  EXPECT_TRUE(plan_segments(std::vector<mat::Index>{8, 900}, ones).segments.empty());
}

TEST(SegmentPlan, SegmentsAreBalancedAndContiguous) {
  // 100 iterations stop at 25 segments of 4 and 17 at 4 segments (4 or 5
  // long): one more would leave a segment of 3. 3 and 0 never split.
  const std::vector<mat::Index> iterations{100, 3, 17, 0};
  const std::vector<mat::Index> expected{25, 1, 4, 1};
  EXPECT_EQ(segment_counts(iterations), expected);
  const SegmentPlan plan = plan_segments(iterations);
  EXPECT_EQ(plan.units, 4u);
  ASSERT_EQ(plan.segments.size(), 25u + 1 + 4 + 1);
  EXPECT_EQ(plan.slots, 29u);
  std::size_t w = 0;
  mat::Index slot = 0;
  for (mat::Index u = 0; u < plan.units; ++u) {
    const mat::Index count = plan.segments[w].count;
    EXPECT_EQ(count, expected[u]) << "unit " << u;
    mat::Index next = 0;
    for (mat::Index s = 0; s < count; ++s, ++w) {
      const Segment& seg = plan.segments[w];
      EXPECT_EQ(seg.unit, u);
      EXPECT_EQ(seg.index, s);
      EXPECT_EQ(seg.begin, next);
      EXPECT_EQ(seg.scratch, count > 1 ? slot : 0);
      const mat::Index len = seg.end - seg.begin;
      EXPECT_GE(len, iterations[u] / count);
      EXPECT_LE(len, (iterations[u] + count - 1) / count);
      next = seg.end;
    }
    EXPECT_EQ(next, iterations[u]);
    slot += count > 1 ? count : 0;
  }
  sim::DeviceMemory mem;
  const DeviceSegments dev = DeviceSegments::upload(mem, plan);
  EXPECT_EQ(dev.size(), plan.segments.size());
  // Two warps per segment: every warp of a unit but its first is tied.
  const std::vector<std::uint8_t> ties = dev.launch_ties(2);
  ASSERT_EQ(ties.size(), 2 * plan.segments.size());
  EXPECT_EQ(ties[0], 0);
  EXPECT_EQ(ties[1], 1);
  EXPECT_EQ(ties[2], 1);       // unit 0, segment 1
  EXPECT_EQ(ties[2 * 25], 0);  // unit 1
}

TEST(SegmentPlan, CountsRejectAMismatchedUnitCount) {
  const std::vector<mat::Index> iterations{20, 20};
  const std::vector<mat::Index> one{2};
  EXPECT_THROW((void)plan_segments(iterations, one), Error);
  const std::vector<mat::Index> none{2, 0};
  EXPECT_THROW((void)plan_segments(iterations, none), Error);
}

TEST(SegmentPlan, TiesGoToTheLowestUnit) {
  // 563 empty units and three of 20 iterations: two warps are left to
  // fill, and the three long units tie on 20; the first two take them.
  std::vector<mat::Index> iterations(563, 0);
  iterations.insert(iterations.end(), {20, 20, 20});
  std::vector<mat::Index> counts = segment_counts(iterations);
  EXPECT_EQ(counts[563], 2u);
  EXPECT_EQ(counts[564], 2u);
  EXPECT_EQ(counts[565], 1u);
  // A longer unit goes first whatever its index; cut in two its segments
  // are 11 long, so the second warp goes to the lowest unit of 20.
  iterations.back() = 21;
  counts = segment_counts(iterations);
  EXPECT_EQ(counts[563], 2u);
  EXPECT_EQ(counts[564], 1u);
  EXPECT_EQ(counts[565], 2u);
}

/// The one-length plan: the smallest L >= max(kMinSegmentIterations,
/// ceil(sum / kFillWarps)) at which cutting every unit longer than L into
/// ceil(iterations / L) segments launches at most kFillWarps warps.
std::uint64_t one_length(const std::vector<mat::Index>& iterations) {
  std::uint64_t total = 0;
  for (const mat::Index it : iterations) {
    total += it;
  }
  const auto warps_at = [&](std::uint64_t length) {
    std::uint64_t warps = 0;
    for (const mat::Index it : iterations) {
      warps += it > length ? (it + length - 1) / length : 1;
    }
    return warps;
  };
  std::uint64_t length =
      std::max<std::uint64_t>(kMinSegmentIterations, (total + kFillWarps - 1) / kFillWarps);
  while (warps_at(length) > kFillWarps) {
    ++length;
  }
  return length;
}

/// Unit lengths that exercise the fill: equal long units, mixed short and
/// long, a lone long unit among empty ones, units just over the minimum,
/// and seeded random mixes of every size class.
std::vector<std::vector<mat::Index>> fill_cases() {
  std::vector<std::vector<mat::Index>> cases = {
      std::vector<mat::Index>(244, 12), std::vector<mat::Index>(488, 12),
      std::vector<mat::Index>(149, 31), std::vector<mat::Index>(298, 16),
      std::vector<mat::Index>(83, 8),   std::vector<mat::Index>(1, 100000),
      std::vector<mat::Index>(567, 9),  {9, 10, 11, 12, 13, 500, 0, 3},
  };
  std::vector<mat::Index> lone(300, 0);
  lone[150] = 5000;
  cases.push_back(lone);
  std::uint64_t state = 42;
  const auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<mat::Index>(state >> 33);
  };
  for (int c = 0; c < 40; ++c) {
    std::vector<mat::Index> iterations(1 + next() % 600);
    const mat::Index scale = std::vector<mat::Index>{4, 16, 64, 2000}[c % 4];
    for (mat::Index& it : iterations) {
      it = next() % (scale + 1);
    }
    cases.push_back(std::move(iterations));
  }
  return cases;
}

TEST(SegmentPlan, FillsToExactlyFillWarpsWhileAUnitCanSplit) {
  for (const std::vector<mat::Index>& iterations : fill_cases()) {
    SCOPED_TRACE(iterations.size());
    const std::vector<mat::Index> counts = segment_counts(iterations);
    ASSERT_EQ(counts, reference_counts(iterations));
    std::uint64_t warps = 0;
    bool eligible = false;
    for (std::size_t u = 0; u < counts.size(); ++u) {
      warps += counts[u];
      eligible = eligible || (iterations[u] > kMinSegmentIterations &&
                              iterations[u] / (counts[u] + 1) >= kShortestSegment);
    }
    if (iterations.size() >= kFillWarps) {
      EXPECT_EQ(warps, iterations.size());
    } else {
      EXPECT_LE(warps, kFillWarps);
      EXPECT_TRUE(warps == kFillWarps || !eligible);
    }
    EXPECT_EQ(plan_segments(iterations).segments.size(),
              warps == iterations.size() ? 0 : warps);
  }
}

TEST(SegmentPlan, SegmentsNoLongerThanTheOneLengthPlan) {
  // Cutting the longest units first never leaves a segment longer than
  // cutting every unit at one length L would.
  for (const std::vector<mat::Index>& iterations : fill_cases()) {
    if (iterations.size() >= kFillWarps) {
      continue;
    }
    SCOPED_TRACE(iterations.size());
    const std::vector<mat::Index> counts = segment_counts(iterations);
    const std::uint64_t length = one_length(iterations);
    for (std::size_t u = 0; u < counts.size(); ++u) {
      EXPECT_LE((iterations[u] + counts[u] - 1) / counts[u], length) << "unit " << u;
    }
  }
}

TEST(SegmentPlan, NeverCutsShortSegmentsOrShortUnits) {
  for (const std::vector<mat::Index>& iterations : fill_cases()) {
    SCOPED_TRACE(iterations.size());
    const SegmentPlan plan = plan_segments(iterations);
    for (const Segment& seg : plan.segments) {
      if (seg.count > 1) {
        EXPECT_GT(iterations[seg.unit], kMinSegmentIterations) << "unit " << seg.unit;
        EXPECT_GE(seg.end - seg.begin, kShortestSegment) << "unit " << seg.unit;
      }
    }
  }
  // A lone long unit stops at segments of kShortestSegment, not of 1.
  EXPECT_EQ(segment_counts(std::vector<mat::Index>{400}), std::vector<mat::Index>{100});
}

TEST(SegmentPlan, LaunchThatSplitsNothingIsUnchanged) {
  // A matrix of kFillWarps pairs or more, and one whose pairs are all
  // within kMinSegmentIterations: the derived plan is empty, and the
  // launch is the one a caller gets by ruling splits out (every count 1),
  // down to every counter and the profile JSON.
  const mat::Csr filled = mat::Csr::from_coo(mat::random_uniform(9100, 9100, 30000, 3));
  const mat::Csr short_pairs = mat::Csr::from_coo(mat::banded(512, 4, 0.5, 1));
  for (const mat::Csr* a : {&filled, &short_pairs}) {
    const mat::BitBsr bb = mat::BitBsr::from_csr(*a);
    ASSERT_TRUE(plan_segments(unit_iterations(bb, true)).segments.empty());
    const std::vector<mat::Index> ones(unit_iterations(bb, true).size(), 1);
    const auto run = [&](std::optional<std::span<const mat::Index>> counts) {
      sim::Device device(sim::l40());
      device.set_sim_threads(1);
      device.set_profile(true);
      auto kernel = make_kernel(Method::Spaden);
      kernel->prepare(device, *a, counts);
      const std::vector<float> x(a->ncols, 0.5f);
      auto xb = device.memory().upload(x);
      auto y = device.memory().alloc<float>(a->nrows);
      const sim::LaunchResult r = kernel->run(device, xb.cspan(), y.span());
      JsonWriter w;
      r.profile.to_json(w);
      return std::make_pair(r.stats, w.take());
    };
    const auto derived = run(std::nullopt);
    const auto unsplit = run(ones);
    EXPECT_EQ(derived.first.warps_launched, (bb.brows + 1) / 2);
    EXPECT_EQ(derived.first, unsplit.first);
    EXPECT_EQ(derived.second, unsplit.second);
  }
}

/// 96 x 1024 with about 160 nonzeros per row: 6 block-row pairs of about
/// 64 iterations, so the segment plan cuts every pair.
mat::Csr long_pairs() {
  return mat::Csr::from_coo(mat::random_uniform(96, 1024, 15360, 14));
}

TEST(SegmentPlan, SplitPairsKeepTheirMmasAndHandOffInExtract) {
  // A segment plan changes warps, not MMAs: the segments of a pair cover
  // its iterations exactly once. Every split warp hands off in the
  // "extract" range, all through atomics, and the launch stays clean.
  const mat::Csr a = long_pairs();
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  for (const std::uint64_t it : unit_iterations(bb, true)) {
    ASSERT_GT(it, kMinSegmentIterations);
  }
  for (const Method m : {Method::Spaden, Method::SpadenConventional, Method::SpadenNoTc,
                         Method::SpadenUnpaired}) {
    SCOPED_TRACE(std::string(method_name(m)));
    sim::Device device(sim::l40());
    device.set_profile(true);
    device.set_sanitize(true);
    auto kernel = make_kernel(m);
    kernel->prepare(device, a);
    EXPECT_TRUE(verify_kernel(*kernel, device, a).ok());
    const auto r = run_once(m, a, device);
    EXPECT_TRUE(r.sanitizer.clean()) << r.sanitizer.summary();
    const bool paired = m != Method::SpadenUnpaired;
    EXPECT_EQ(r.stats.warps_launched,
              plan_warps(unit_iterations(bb, paired)));
    EXPECT_GT(r.stats.warps_launched, paired ? 6u : 12u);
    const std::uint64_t mmas = m == Method::SpadenNoTc       ? 0
                               : m == Method::SpadenUnpaired ? bb.num_blocks()
                                                             : pair_mmas(bb, 2);
    EXPECT_EQ(r.stats.tc_mma_m16n16k16, mmas);
    const auto extract =
        std::find_if(r.profile.ranges.begin(), r.profile.ranges.end(),
                     [](const sim::RangeProfile& range) { return range.name == "extract"; });
    ASSERT_NE(extract, r.profile.ranges.end());
    EXPECT_GT(r.stats.atomic_lane_ops, 0u);
    EXPECT_EQ(extract->stats.atomic_lane_ops, r.stats.atomic_lane_ops);
  }
}

}  // namespace
}  // namespace spaden::kern
