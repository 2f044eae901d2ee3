// Spaden's SpMV kernel (paper §4.3), its staged-fragment variant, and the
// two Fig. 8 ablation baselines, "Spaden (unpaired)" and "Spaden w/o TC"
// (§5.3).
//
// Each warp owns two consecutive block-rows. It decodes bitBSR blocks
// (Algorithm 2) and writes the decoded elements *directly into the
// tensor-core fragment registers*, per the reverse-engineered layout of §3.
// Where the paper's Fig. 5 puts one block of each block-row on the
// fragment diagonal and leaves A's top-right and bottom-left portions zero,
// this kernel fills all four portions: blocks j and j+1 of r1 in TL and TR,
// blocks j and j+1 of r2 in BL and BR (walk_block_row_pair). B's column
// half 0 holds r1's two x segments and column half 1 holds r2's, so one
// m16n16k16 MMA (Algorithm 3) covers two blocks of each block-row and a
// warp issues ceil(max(len1, len2) / 2) MMAs, half the paper's count. After
// the block loop, the first column of C's TL and BR portions is extracted
// into y (Algorithm 4): 16 output rows per warp per pass. Every row sees
// its blocks in the same order as under Fig. 5, so y is bit-identical to
// the paper's layout.
//
// The ablation baselines keep one block per slot per MMA: the unpaired
// variant gives each warp one block-row (TL only), and the w/o-TC variant
// shares the decode but multiplies on CUDA cores, isolating the
// bitBSR-format contribution from the tensor-core contribution in the
// Fig. 8 breakdown.
//
// A matrix with fewer block-row pairs than it takes to fill the device
// gets a segment plan (kernels/segments.hpp): each long pair (or, for the
// unpaired variant, block-row) is cut into segments of consecutive
// iterations on separate warps, and the last of a unit's warps to arrive
// sums their partials in segment order before it stores y. With at least
// kFillWarps units the launch is one warp per unit, as above.
#include <algorithm>
#include <utility>

#include "common/bitops.hpp"
#include "kernels/bitbsr_decode.hpp"
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"
#include "kernels/segments.hpp"
#include "kernels/spmm.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

namespace {

class SpadenKernel final : public SpmvKernel {
 public:
  explicit SpadenKernel(SpadenVariant variant)
      : variant_(variant), use_tc_(variant != SpadenVariant::NoTensorCore) {}

  [[nodiscard]] Method method() const override {
    switch (variant_) {
      case SpadenVariant::TensorCore:
        return Method::Spaden;
      case SpadenVariant::NoTensorCore:
        return Method::SpadenNoTc;
      case SpadenVariant::Conventional:
        return Method::SpadenConventional;
      case SpadenVariant::Unpaired:
        return Method::SpadenUnpaired;
    }
    return Method::Spaden;
  }

  [[nodiscard]] std::vector<mat::Index> derive_segment_counts(
      const mat::Csr& a) const override {
    return segment_counts(a, paired());
  }

  [[nodiscard]] mat::Index rows_per_segment_unit() const override {
    return paired() ? kRowsPerUnit : kRowsPerUnit / 2;
  }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    const mat::BitBsr bb = mat::BitBsr::from_csr(a);
    const SegmentPlan plan = plan_segments(unit_iterations(bb, paired()), segment_counts_);
    // Per-warp balancing weights from the block-row bitmap popcounts
    // (val_offset is their exclusive scan): a warp's decode/MMA work scales
    // with the nonzeros of the blocks it walks, so the nnz-balanced
    // partition equalizes real work per virtual SM on power-law matrices.
    // A warp of a plan walks the blocks of its segment: [begin, end) of
    // each block-row's iterations, two blocks per four-slot iteration.
    const mat::Index per_iteration = paired() ? 2 : 1;
    const auto brow_nnz = [&](mat::Index r, const Segment& seg) -> std::uint64_t {
      const mat::Index row_begin = bb.block_row_ptr[r];
      const mat::Index len = bb.block_row_ptr[r + 1] - row_begin;
      const auto clip = [&](mat::Index it) {
        return row_begin + static_cast<mat::Index>(
                               std::min<std::uint64_t>(len, std::uint64_t{per_iteration} * it));
      };
      return bb.val_offset[clip(seg.end)] - bb.val_offset[clip(seg.begin)];
    };
    std::vector<Segment> warps = plan.segments;
    if (warps.empty()) {
      warps.resize(plan.units);
      for (mat::Index u = 0; u < plan.units; ++u) {
        warps[u].unit = u;
      }
    }
    std::vector<std::uint64_t> weights(warps.size());
    for (std::size_t w = 0; w < warps.size(); ++w) {
      const auto r1 = static_cast<mat::Index>(paired() ? 2 * warps[w].unit : warps[w].unit);
      weights[w] = brow_nnz(r1, warps[w]);
      if (paired() && r1 + 1 < bb.brows) {
        weights[w] += brow_nnz(r1 + 1, warps[w]);
      }
    }
    device.set_warp_weights(std::move(weights));
    bitbsr_ = DeviceBitBsr::upload(device.memory(), bb);
    // Prepare-time hint: share the bitmap decode tables across all warps
    // and launches (modeled work is unchanged; see BitBsrDecodeCache).
    decode_cache_.build(bb);
    segments_ = DeviceSegments::upload(device.memory(), plan);
    scratch_ = {};
    tickets_ = {};
    if (!segments_.empty()) {
      scratch_ = device.memory().alloc<float>(std::size_t{plan.slots} * kRowsPerUnit,
                                              "segment.scratch");
      tickets_ = device.memory().alloc<std::uint32_t>(plan.units, "segment.tickets");
    }
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    SPADEN_REQUIRE(x.size == ncols_ && y.size == nrows_, "x/y size mismatch");
    const mat::Index brows = bitbsr_.brows;
    const mat::Index nrows = nrows_;

    // One warp per pair of block-rows; the Unpaired ablation uses one
    // block-row per warp instead (top-left portion only). With a segment
    // plan, one warp per segment of those units.
    const bool paired = this->paired();
    const bool split = !segments_.empty();
    const std::uint64_t warps = split ? segments_.size() : paired ? (brows + 1) / 2 : brows;
    std::string launch_name(name());
    device.set_launch_warp_ties(launch_name, segments_.launch_ties(1));
    return device.launch(launch_name, warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
      Segment seg;
      seg.unit = static_cast<mat::Index>(w);
      if (split) {
        seg = ctx.scalar_load(segments_.segments.cspan(), w);
      }
      const mat::Index r1 = paired ? 2 * seg.unit : seg.unit;
      const mat::Index r2 = paired ? 2 * seg.unit + 1 : brows;
      const bool has_r2 = paired && r2 < brows;
      auto [out1, out2] = use_tc_ && paired
                              ? four_slot_pass(ctx, x, seg.unit, seg.begin, seg.end)
                              : ablation_pass(ctx, x, r1, r2, has_r2, seg.begin, seg.end);

      // Store 8 + 8 results from lanes 0, 4, ..., 28 (Algorithm 4 lines
      // 4-8: lid % 4 == 0, offset row*BLOCK_DIM + lid/4).
      sim::Lanes<std::uint32_t> yidx1{};
      sim::Lanes<std::uint32_t> yidx2{};
      std::uint32_t mask1 = 0;
      std::uint32_t mask2 = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
        const std::uint32_t row1 = r1 * 8 + lane / 4;
        if (row1 < nrows) {
          yidx1[lane] = row1;
          mask1 |= 1u << lane;
        }
        if (has_r2) {
          const std::uint32_t row2 = r2 * 8 + lane / 4;
          if (row2 < nrows) {
            yidx2[lane] = row2;
            mask2 |= 1u << lane;
          }
        }
      }
      ctx.charge(sim::OpClass::IntAlu, 16);
      if (seg.count > 1) {
        // Split unit: row r's partial is entry r of the segment's 16-float
        // scratch block (r1's rows first); the last arrival stores y.
        const sim::ProfRange prof(ctx, "extract");
        const SegmentHandOff hand_off(seg, scratch_.span(), kRowsPerUnit, tickets_.span(),
                                      seg.unit);
        RowPartials p1{out1, {}, mask1};
        RowPartials p2{out2, {}, mask2};
        for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
          p1.entry[lane] = lane / 4;
          p2.entry[lane] = 8 + lane / 4;
        }
        hand_off.publish(ctx, p1);
        hand_off.publish(ctx, p2);
        if (!hand_off.last(ctx)) {
          return;
        }
        hand_off.combine(ctx, p1);
        hand_off.combine(ctx, p2);
        hand_off.finish(ctx);
        out1 = p1.value;
        out2 = p2.value;
      }
      ctx.scatter(y, yidx1, out1, mask1);
      if (mask2 != 0) {
        ctx.scatter(y, yidx2, out2, mask2);
      }
    });
  }

  /// The paper's pairing TC variant packs its batch as a binary16
  /// fragment stack for the fused multi-RHS kernel; the ablations keep the
  /// fp32 stack and the (bit-identical) sequential base path.
  ///
  /// A fused warp with more than 8 columns also multiplies each slot's x
  /// rows by the other slot's zero A block. That adds ±0 while x is finite
  /// in binary16, but 0 * inf is NaN and would reach the paired block-row,
  /// which run() never does. The pack records finiteness in the same host
  /// pass (not charged to the modeled launch, like any host pack), and a
  /// batch with an entry outside binary16 range or NaN is re-packed as an
  /// fp32 stack for the base path, to stay bit-identical.
  XBatch upload_batch(sim::Device& device,
                      const std::vector<const std::vector<float>*>& xs) override {
    if (variant_ == SpadenVariant::TensorCore) {
      const auto k = static_cast<mat::Index>(xs.size());
      FragmentStack stack = pack_fragment_stack(
          k, ncols_, [&](mat::Index c, mat::Index i) { return (*xs[c])[i]; });
      if (stack.finite) {
        XBatch batch;
        batch.k = k;
        batch.fragments = true;
        batch.h16 = device.memory().upload(std::move(stack.words), "batch.x");
        return batch;
      }
    }
    return SpmvKernel::upload_batch(device, xs);
  }

  /// A fragment batch runs the fused SpMM. Up to kSpmmRhsPerWarp columns
  /// its launch has one warp per block-row pair, so the pair-sized
  /// balancing weights installed at prepare apply; a wider batch has a
  /// multiple of that warp count and falls back to the contiguous
  /// partition.
  sim::LaunchResult run_multi(sim::Device& device, const XBatch& xs,
                              sim::DSpan<float> ys) override {
    if (!xs.fragments) {
      return SpmvKernel::run_multi(device, xs, ys);
    }
    device.set_batch_id(device.alloc_batch_id());
    return spmm_spaden_strided(device, bitbsr_, &decode_cache_, &segments_, xs.h16.cspan(), ys,
                               xs.k, nrows_, ncols_);
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    return bitbsr_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    bitbsr_.add_footprint(fp);
    return fp;
  }

 private:
  using RowOutputs = std::pair<sim::Lanes<float>, sim::Lanes<float>>;

  /// Spaden and Spaden (conventional): the four-slot walk
  /// (walk_block_row_pair), x segments broadcast into B's column half of
  /// their block-row, then Algorithm 4's extraction of the first column of
  /// C's TL (r1) and BR (r2) portions. A slot past the end of its block-row
  /// has zero A and B portions, so it adds 0 * 0 products from then on,
  /// whatever x held.
  RowOutputs four_slot_pass(sim::WarpCtx& ctx, sim::DSpan<const float> x, mat::Index pair,
                            mat::Index first, mat::Index last) {
    const BlockRowPair rows(ctx, bitbsr_.block_row_ptr.cspan(), pair, bitbsr_.brows);
    tc::FragA a_frag;
    tc::FragB b_frag;
    tc::FragAcc acc_frag;  // zero-initialized (wmma::fill_fragment(.., 0))
    walk_block_row_pair(
        ctx, bitbsr_, &decode_cache_, rows, first, last, /*four_slots=*/true, a_frag, b_frag,
        [&](const PairSlot& slot, const DecodedBlock& block) {
          const auto [b1, b2] = load_x_segment(ctx, x, block.block_col);
          const unsigned reg = slot.b_reg(slot.row);
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            b_frag.x(lane, reg) = half(b1[lane]);
            b_frag.x(lane, reg + 1) = half(b2[lane]);
          }
          ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
          ctx.charge(sim::OpClass::Convert, 2 * sim::kWarpSize);
        },
        [&] {
          if (variant_ == SpadenVariant::Conventional) {
            // The documented path (paper §3): both fragments staged through
            // a 256-element shared-memory buffer and loaded with
            // wmma::load. Numerically identical to the direct writes; the
            // cost is the full-buffer round trip.
            constexpr std::uint64_t kElems = tc::kFragDim * tc::kFragDim;
            for (int frag = 0; frag < 2; ++frag) {
              ctx.charge(sim::OpClass::IntAlu, kElems);   // st.shared
              ctx.charge(sim::OpClass::IntAlu, kElems);   // ld.shared
              ctx.charge(sim::OpClass::RegMove, kElems);  // fragment fill
            }
          }
          tc::wmma_mma(ctx, acc_frag, a_frag, b_frag, acc_frag);
        });

    const sim::ProfRange prof_extract(ctx, "extract");
    RowOutputs out{};
    for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
      out.first[lane] = acc_frag.x(lane, 0);
      out.second[lane] = acc_frag.x(lane, 6);
    }
    ctx.charge(sim::OpClass::RegMove, 16);
    return out;
  }

  /// The Fig. 8 ablation baselines, one block per slot per iteration:
  /// Spaden (unpaired) on tensor cores with block-row r1 alone in the TL
  /// portion, Spaden w/o TC on CUDA cores with lane l accumulating block
  /// row l/4 of each slot. The walk covers the unit's iterations
  /// [first, last): blocks [2 * first, 2 * last) of a pair (Spaden w/o TC
  /// shares Spaden's pair plan), blocks [first, last) of an unpaired
  /// block-row.
  RowOutputs ablation_pass(sim::WarpCtx& ctx, sim::DSpan<const float> x, mat::Index r1,
                           mat::Index r2, bool has_r2, mat::Index first, mat::Index last) {
    const auto block_row_ptr = bitbsr_.block_row_ptr.cspan();
    const mat::Index begin1 = ctx.scalar_load(block_row_ptr, r1);
    const mat::Index end1 = ctx.scalar_load(block_row_ptr, r1 + 1);
    const mat::Index begin2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2) : 0;
    const mat::Index end2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2 + 1) : 0;
    const mat::Index len1 = end1 - begin1;
    const mat::Index len2 = end2 - begin2;
    const std::uint64_t per_iteration = paired() ? 2 : 1;
    const auto iterations = static_cast<mat::Index>(
        std::min<std::uint64_t>(std::max(len1, len2), per_iteration * last));

    tc::FragA a_frag;
    tc::FragB b_frag;
    tc::FragAcc acc_frag;
    sim::Lanes<float> cuda_acc1{};
    sim::Lanes<float> cuda_acc2{};

    for (auto j = static_cast<mat::Index>(per_iteration * first); j < iterations; ++j) {
      // Slot 0: block j of block-row r1 -> top-left portion, regs x[0,1].
      // Slot 1: block j of block-row r2 -> bottom-right, regs x[6,7].
      for (int slot = 0; slot < 2; ++slot) {
        const bool valid = slot == 0 ? (j < len1) : (j < len2);
        const unsigned reg0 = slot == 0 ? 0 : 6;
        if (!valid) {
          const sim::ProfRange prof(ctx, "mma");
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            a_frag.x(lane, reg0) = half{};
            a_frag.x(lane, reg0 + 1) = half{};
          }
          ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
          continue;
        }
        const mat::Index a_idx = (slot == 0 ? begin1 : begin2) + j;
        ctx.range_push("decode");
        const DecodedBlock block = decode_bitbsr_block(ctx, bitbsr_, a_idx, &decode_cache_);
        const auto [b1, b2] = load_x_segment(ctx, x, block.block_col);
        ctx.range_pop();
        const sim::ProfRange prof(ctx, "mma");
        if (use_tc_) {
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            a_frag.x(lane, reg0) = block.a_val1[lane];
            a_frag.x(lane, reg0 + 1) = block.a_val2[lane];
            b_frag.x(lane, reg0) = half(b1[lane]);
            b_frag.x(lane, reg0 + 1) = half(b2[lane]);
          }
          ctx.charge(sim::OpClass::RegMove, 4 * sim::kWarpSize);
          ctx.charge(sim::OpClass::Convert, 2 * sim::kWarpSize);
        } else {
          // Each lane multiplies its two decoded elements with the
          // matching x entries.
          auto& acc = slot == 0 ? cuda_acc1 : cuda_acc2;
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            acc[lane] += block.a_val1[lane].to_float() * b1[lane] +
                         block.a_val2[lane].to_float() * b2[lane];
          }
          ctx.charge(sim::OpClass::Fma, 2 * sim::kWarpSize);
        }
      }
      if (use_tc_) {
        const sim::ProfRange prof(ctx, "mma");
        tc::wmma_mma(ctx, acc_frag, a_frag, b_frag, acc_frag);
      }
    }

    // Algorithm 4: extract the first column of both diagonal result blocks
    // (TC), or reduce the per-lane partials across the 4 lanes of each
    // block row (CUDA cores).
    const sim::ProfRange prof_extract(ctx, "extract");
    RowOutputs out{};
    if (use_tc_) {
      for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
        out.first[lane] = acc_frag.x(lane, 0);
        out.second[lane] = acc_frag.x(lane, 6);
      }
      ctx.charge(sim::OpClass::RegMove, 16);
      return out;
    }
    for (unsigned delta = 2; delta > 0; delta /= 2) {
      sim::Lanes<std::uint32_t> src{};
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        src[lane] = lane ^ delta;
      }
      const auto o1 = ctx.shfl(cuda_acc1, src);
      const auto o2 = ctx.shfl(cuda_acc2, src);
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        cuda_acc1[lane] += o1[lane];
        cuda_acc2[lane] += o2[lane];
      }
      ctx.charge(sim::OpClass::FpAlu, 2 * sim::kWarpSize);
    }
    return {cuda_acc1, cuda_acc2};
  }

  /// Algorithm 2 lines 7-10, the vector decode: the x segment of block
  /// column `block_col`, which each column of the slot's B portion repeats.
  /// Lane l reads segment entries 2*(l%4) and +1 as one 8-byte pair. A
  /// segment that extends past ncols (the last block column), or an x that
  /// does not start on an 8-byte boundary, takes two masked single loads
  /// instead, so nothing past x is read: the skipped entries stay zero and
  /// only ever multiply structural zeros.
  std::pair<sim::Lanes<float>, sim::Lanes<float>> load_x_segment(sim::WarpCtx& ctx,
                                                                 sim::DSpan<const float> x,
                                                                 mat::Index block_col) const {
    const mat::Index ncols = ncols_;
    const std::uint32_t seg = block_col * 8;
    sim::Lanes<std::uint32_t> xidx1{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      xidx1[lane] = seg + ((lane & 3u) << 1);
    }
    if (seg + 8 <= ncols && x.addr % (2 * sizeof(float)) == 0) {
      ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);
      return ctx.gather2(x, xidx1);
    }
    sim::Lanes<std::uint32_t> xidx2{};
    std::uint32_t mask1 = 0;
    std::uint32_t mask2 = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      xidx2[lane] = xidx1[lane] + 1;
      mask1 |= static_cast<std::uint32_t>(xidx1[lane] < ncols) << lane;
      mask2 |= static_cast<std::uint32_t>(xidx2[lane] < ncols) << lane;
    }
    ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
    return {ctx.gather(x, xidx1, mask1), ctx.gather(x, xidx2, mask2)};
  }

  /// Rows of a unit's scratch block: the 16 rows of a pair (8 of an
  /// unpaired block-row, which leaves the upper 8 unused).
  static constexpr std::uint32_t kRowsPerUnit = 16;

  /// Units are block-row pairs (every variant but Spaden (unpaired)).
  [[nodiscard]] bool paired() const { return variant_ != SpadenVariant::Unpaired; }

  SpadenVariant variant_;
  bool use_tc_;
  DeviceBitBsr bitbsr_;
  BitBsrDecodeCache decode_cache_;
  DeviceSegments segments_;
  sim::Buffer<float> scratch_;           ///< kRowsPerUnit floats per segment slot
  sim::Buffer<std::uint32_t> tickets_;  ///< one ticket per unit
};

}  // namespace

std::unique_ptr<SpmvKernel> make_spaden(SpadenVariant variant) {
  return std::make_unique<SpadenKernel>(variant);
}

}  // namespace spaden::kern
