// Spaden-16: the bitBSR16 tensor-core SpMV kernel — one 16x16 block fills
// the whole m16n16k16 fragment, no diagonal pairing needed.
//
// This is the design point the paper's §4.2 block-size discussion implies
// for hardware whose native fragment matches the block: each lane's eight
// fragment registers correspond exactly to eight bitmap positions of the
// 256-bit block bitmap (the §3 mapping, all four portions), so the decode
// is the natural widening of Algorithm 2. Per warp pass: 16 output rows,
// identical to the paired 8x8 kernel, with one block stream instead of two.
#include <algorithm>
#include <vector>

#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"
#include "matrix/bitbsr_wide.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

namespace {

/// One bitBSR16 block's metadata, read with one 40-byte broadcast load
/// (two sectors) where separate arrays cost six one-lane loads.
struct BitBsr16Header {
  mat::BitBsr16::Bitmap bitmap{};
  mat::Index block_col = 0;
  mat::Index val_offset = 0;
};
static_assert(sizeof(BitBsr16Header) == 40, "headers are packed back to back");

/// Device-resident bitBSR16.
struct DeviceBitBsr16 {
  mat::Index brows = 0;
  sim::Buffer<mat::Index> block_row_ptr;
  sim::Buffer<BitBsr16Header> headers;  ///< num_blocks
  sim::Buffer<half> values;
};

class SpadenWideKernel final : public SpmvKernel {
 public:
  [[nodiscard]] Method method() const override { return Method::SpadenWide; }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    const mat::BitBsr16 bb = mat::BitBsr16::from_csr(a);
    auto& mem = device.memory();
    dev_.brows = bb.brows;
    std::vector<BitBsr16Header> headers(bb.num_blocks());
    for (std::size_t b = 0; b < headers.size(); ++b) {
      headers[b] = {bb.bitmap[b], bb.block_col[b], bb.val_offset[b]};
    }
    dev_.block_row_ptr = mem.upload(bb.block_row_ptr, "wide.block_row_ptr");
    dev_.headers = mem.upload(std::move(headers), "wide.headers");
    dev_.values = mem.upload(bb.values, "wide.values");
    // One warp per block-row: balance on the block-row's nonzero count
    // (bitmap popcounts, via the val_offset exclusive scan).
    std::vector<std::uint64_t> weights(static_cast<std::size_t>(bb.brows));
    for (mat::Index r = 0; r < bb.brows; ++r) {
      weights[static_cast<std::size_t>(r)] =
          bb.val_offset[static_cast<std::size_t>(bb.block_row_ptr[r + 1])] -
          bb.val_offset[static_cast<std::size_t>(bb.block_row_ptr[r])];
    }
    device.set_warp_weights(std::move(weights));
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    SPADEN_REQUIRE(x.size == ncols_ && y.size == nrows_, "x/y size mismatch");
    const auto block_row_ptr = dev_.block_row_ptr.cspan();
    const auto headers = dev_.headers.cspan();
    const auto values = dev_.values.cspan();
    const mat::Index nrows = nrows_;
    const mat::Index ncols = ncols_;

    return device.launch("spaden_wide", dev_.brows, [&](sim::WarpCtx& ctx, std::uint64_t w) {
      const auto br = static_cast<mat::Index>(w);
      const mat::Index begin = ctx.scalar_load(block_row_ptr, br);
      const mat::Index end = ctx.scalar_load(block_row_ptr, br + 1);

      tc::FragA a_frag;
      tc::FragB b_frag;
      tc::FragAcc acc_frag;
      for (mat::Index b = begin; b < end; ++b) {
        const BitBsr16Header header = ctx.scalar_load(headers, b);
        const mat::BitBsr16::Bitmap& bmp = header.bitmap;
        const mat::Index bc = header.block_col;
        const mat::Index offset = header.val_offset;

        // Decode all eight registers per lane: reg r of lane lid is bitmap
        // position row*16 + col of its fragment coordinate.
        for (unsigned reg = 0; reg < tc::kRegsPerLane; ++reg) {
          sim::Lanes<std::uint32_t> vidx{};
          std::uint32_t set_mask = 0;
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            const tc::Coord c = tc::frag_coord(tc::FragUse::MatrixA, lane, reg);
            const unsigned pos = c.row * 16 + c.col;
            if (mat::BitBsr16::test(bmp, pos)) {
              vidx[lane] = offset + static_cast<std::uint32_t>(
                                        mat::BitBsr16::prefix_popcount(bmp, pos));
              set_mask |= 1u << lane;
            }
          }
          ctx.charge(sim::OpClass::IntAlu, 4 * sim::kWarpSize);  // widened Algo 2
          const auto vals = ctx.gather(values, vidx, set_mask);
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            a_frag.x(lane, reg) = ((set_mask >> lane) & 1u) ? vals[lane] : half{};
          }
          ctx.charge(sim::OpClass::RegMove, sim::kWarpSize);
        }

        // B: the 16-long x segment broadcast so every column equals it.
        // Column-major layout: reg r of lane lid sits at fragment row
        // frag_coord(B, lid, r).row -> x[bc*16 + row].
        for (unsigned reg = 0; reg < tc::kRegsPerLane; reg += 2) {
          sim::Lanes<std::uint32_t> xidx1{};
          sim::Lanes<std::uint32_t> xidx2{};
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            const unsigned row1 = tc::frag_coord(tc::FragUse::MatrixB, lane, reg).row;
            xidx1[lane] = std::min(bc * 16 + row1, ncols - 1);
            xidx2[lane] = std::min(bc * 16 + row1 + 1, ncols - 1);
          }
          ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
          const auto xv1 = ctx.gather(x, xidx1);
          const auto xv2 = ctx.gather(x, xidx2);
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            b_frag.x(lane, reg) = half(xv1[lane]);
            b_frag.x(lane, reg + 1) = half(xv2[lane]);
          }
          ctx.charge(sim::OpClass::Convert, 2 * sim::kWarpSize);
          ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
        }
        tc::wmma_mma(ctx, acc_frag, a_frag, b_frag, acc_frag);
      }

      // Extract fragment column 0: rows 0-7 from the top-left pair (x[0] of
      // lanes lid%4==0) and rows 8-15 from the bottom-left pair (x[2]).
      sim::Lanes<std::uint32_t> yidx1{};
      sim::Lanes<std::uint32_t> yidx2{};
      sim::Lanes<float> out1{};
      sim::Lanes<float> out2{};
      std::uint32_t m1 = 0;
      std::uint32_t m2 = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
        const std::uint32_t row_top = br * 16 + lane / 4;
        if (row_top < nrows) {
          yidx1[lane] = row_top;
          out1[lane] = acc_frag.x(lane, 0);
          m1 |= 1u << lane;
        }
        const std::uint32_t row_bottom = br * 16 + 8 + lane / 4;
        if (row_bottom < nrows) {
          yidx2[lane] = row_bottom;
          out2[lane] = acc_frag.x(lane, 2);
          m2 |= 1u << lane;
        }
      }
      ctx.charge(sim::OpClass::IntAlu, 16);
      ctx.scatter(y, yidx1, out1, m1);
      if (m2 != 0) {
        ctx.scatter(y, yidx2, out2, m2);
      }
    });
  }

  /// Unpacks the headers into the format's arrays (val_offset closed by
  /// the value count), as DeviceBitBsr::check does.
  [[nodiscard]] san::FormatReport check_format() const override {
    const std::vector<BitBsr16Header>& h = dev_.headers.host();
    std::vector<mat::Index> block_col(h.size());
    std::vector<std::uint64_t> bitmap;
    bitmap.reserve(h.size() * mat::BitBsr16::kWords);
    std::vector<mat::Index> val_offset(h.size() + 1);
    for (std::size_t b = 0; b < h.size(); ++b) {
      block_col[b] = h[b].block_col;
      bitmap.insert(bitmap.end(), h[b].bitmap.begin(), h[b].bitmap.end());
      val_offset[b] = h[b].val_offset;
    }
    val_offset.back() = static_cast<mat::Index>(dev_.values.size());
    return san::check_bitbsr_wide(nrows_, ncols_, dev_.block_row_ptr.host(), block_col,
                                  bitmap.data(), bitmap.size(), val_offset,
                                  dev_.values.size());
  }

  /// Itemized as the bitBSR16 format, like DeviceBitBsr::add_footprint.
  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    fp.add("bitbsr16.block_row_ptr", dev_.block_row_ptr.bytes());
    fp.add("bitbsr16.headers", dev_.headers.bytes());
    fp.add("bitbsr16.value_count", sizeof(mat::Index));
    fp.add("bitbsr16.values", dev_.values.bytes());
    return fp;
  }

 private:
  DeviceBitBsr16 dev_;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_spaden_wide() {
  return std::make_unique<SpadenWideKernel>();
}

}  // namespace spaden::kern
