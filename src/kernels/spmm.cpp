#include "kernels/spmm.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "kernels/bitbsr_decode.hpp"
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"
#include "kernels/kernel.hpp"
#include "kernels/segments.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

double spmm_tolerance(const mat::Csr& a, bool half_precision_values) {
  // Same row-accumulation analysis as SpMV; B entries are bounded by 1.
  return spmv_tolerance(a, half_precision_values);
}

SpmmResult spmm_csr(sim::Device& device, const mat::Csr& a, const mat::Dense& b) {
  SPADEN_REQUIRE(a.ncols == b.nrows, "SpMM shape mismatch");
  const DeviceCsr csr = DeviceCsr::upload(device.memory(), a);
  auto b_dev = device.memory().upload(b.data, "spmm.b");
  auto c_dev = device.memory().alloc<float>(static_cast<std::size_t>(a.nrows) * b.ncols, "spmm.c");

  const auto row_ptr = csr.row_ptr.cspan();
  const auto col_idx = csr.col_idx.cspan();
  const auto val = csr.val.cspan();
  const auto b_span = b_dev.cspan();
  auto c_span = c_dev.span();
  const mat::Index k = b.ncols;
  const mat::Index col_tiles = ceil_div<mat::Index>(k, sim::kWarpSize);

  const std::uint64_t warps = static_cast<std::uint64_t>(a.nrows) * col_tiles;
  SpmmResult result;
  result.launch = device.launch("spmm_csr", warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
    const auto row = static_cast<mat::Index>(w / col_tiles);
    const auto tile = static_cast<mat::Index>(w % col_tiles) * sim::kWarpSize;
    const mat::Index begin = ctx.scalar_load(row_ptr, row);
    const mat::Index end = ctx.scalar_load(row_ptr, row + 1);

    sim::Lanes<std::uint32_t> cidx{};
    std::uint32_t cmask = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      if (tile + lane < k) {
        cidx[lane] = row * k + tile + lane;
        cmask |= 1u << lane;
      }
    }

    sim::Lanes<float> acc{};
    for (mat::Index i = begin; i < end; ++i) {
      // Broadcast the nonzero, stream the matching B row tile (coalesced).
      const mat::Index col = ctx.scalar_load(col_idx, i);
      const float av = ctx.scalar_load(val, i);
      sim::Lanes<std::uint32_t> bidx{};
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if ((cmask >> lane) & 1u) {
          bidx[lane] = col * k + tile + lane;
        }
      }
      const auto bv = ctx.gather(b_span, bidx, cmask);
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if ((cmask >> lane) & 1u) {
          acc[lane] += av * bv[lane];
        }
      }
      ctx.charge(sim::OpClass::Fma, sim::active_lanes(cmask));
      ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);  // loop + addressing
    }
    ctx.scatter(c_span, cidx, acc, cmask);
  });
  result.c.nrows = a.nrows;
  result.c.ncols = k;
  result.c.data = c_dev.host();
  return result;
}

SpmmResult spmm_spaden(sim::Device& device, const mat::Csr& a, const mat::Dense& b) {
  SPADEN_REQUIRE(a.ncols == b.nrows, "SpMM shape mismatch");
  const mat::BitBsr bb_host = mat::BitBsr::from_csr(a);
  const DeviceBitBsr bb = DeviceBitBsr::upload(device.memory(), bb_host);
  BitBsrDecodeCache decode_cache;
  decode_cache.build(bb_host);
  const DeviceSegments segments = DeviceSegments::upload(
      device.memory(), plan_segments(unit_iterations(bb_host, true)));
  const mat::Index k = b.ncols;
  auto b_dev = device.memory().upload(
      pack_fragment_stack(k, b.nrows, [&](mat::Index c, mat::Index i) { return b.at(i, c); })
          .words,
      "spmm.b");
  auto c_dev = device.memory().alloc<float>(k * column_stride(a.nrows), "spmm.c");

  SpmmResult result;
  result.launch = spmm_spaden_strided(device, bb, &decode_cache, &segments, b_dev.cspan(),
                                      c_dev.span(), k, a.nrows, a.ncols);
  const std::vector<float> c_stack = c_dev.host();
  result.c = mat::Dense(a.nrows, k);
  for (mat::Index c = 0; c < k; ++c) {
    const std::span<const float> column = stack_column(c_stack, a.nrows, c);
    for (mat::Index r = 0; r < a.nrows; ++r) {
      result.c.at(r, c) = column[r];
    }
  }
  return result;
}

sim::LaunchResult spmm_spaden_strided(sim::Device& device, const DeviceBitBsr& a,
                                      const BitBsrDecodeCache* cache,
                                      const DeviceSegments* segments,
                                      sim::DSpan<const HalfPair> xs, sim::DSpan<float> ys,
                                      mat::Index k, mat::Index nrows, mat::Index ncols) {
  SPADEN_REQUIRE(k >= 1, "spmm_spaden_strided needs at least one right-hand side");
  // Lane indices below are 32-bit, as on the device: a larger stack would
  // wrap to an in-bounds wrong element. Checked from the shape alone,
  // before the sizes.
  const std::uint64_t x_words = fragment_stack_words(k, ncols);
  const auto bcols = static_cast<mat::Index>((std::uint64_t{ncols} + 7) / 8);
  SPADEN_REQUIRE(x_words <= UINT32_MAX,
                 "binary16 x stack of %llu column groups x %u block columns x 32 lanes "
                 "overflows 32-bit lane indices",
                 static_cast<unsigned long long>((std::uint64_t{k} + 7) / 8), bcols);
  SPADEN_REQUIRE(xs.size == x_words,
                 "x stack of %zu words is not the binary16 fragment stack of k=%u columns "
                 "of %u rows (%llu words, kern::pack_fragment_stack)",
                 xs.size, k, ncols, static_cast<unsigned long long>(x_words));
  SPADEN_REQUIRE(ys.size % k == 0 && ys.size / k >= nrows,
                 "y stack of %zu entries is not k=%u columns of at least %u entries", ys.size,
                 k, nrows);
  SPADEN_REQUIRE(ys.size <= UINT32_MAX,
                 "y stack of %zu entries overflows 32-bit lane indices", ys.size);
  const auto y_stride = static_cast<std::uint32_t>(ys.size / k);
  const auto block_row_ptr = a.block_row_ptr.cspan();
  const mat::Index brows = a.brows;
  const std::uint64_t pairs = (brows + 1) / 2;
  const mat::Index warps_per_pair = ceil_div(k, kSpmmRhsPerWarp);

  // With a segment plan, warps_per_pair warps per segment. Segment slot s
  // hands column c's row r off at scratch entry (s * k + c) * 16 + r, and
  // the warps of column group g of pair p draw ticket p * warps_per_pair + g.
  const bool split = segments != nullptr && !segments->empty();
  sim::Buffer<float> scratch;
  sim::Buffer<std::uint32_t> tickets;
  if (split) {
    const std::uint64_t entries = std::uint64_t{segments->slots} * k * 16;
    SPADEN_REQUIRE(entries <= UINT32_MAX,
                   "segment scratch of %llu entries overflows 32-bit lane indices",
                   static_cast<unsigned long long>(entries));
    scratch = device.memory().alloc<float>(entries, "segment.scratch");
    tickets = device.memory().alloc<std::uint32_t>(
        std::size_t{segments->units} * warps_per_pair, "segment.tickets");
  }
  device.set_launch_warp_ties("spmm_spaden_strided",
                              split ? segments->launch_ties(warps_per_pair)
                                    : std::vector<std::uint8_t>{});
  const std::uint64_t warps = (split ? segments->size() : pairs) * warps_per_pair;
  return device.launch("spmm_spaden_strided", warps, [&](sim::WarpCtx& ctx,
                                                         std::uint64_t w) {
    Segment seg;
    seg.unit = static_cast<mat::Index>(w / warps_per_pair);
    if (split) {
      seg = ctx.scalar_load(segments->segments.cspan(), w / warps_per_pair);
    }
    const mat::Index pair = seg.unit;
    const auto group = static_cast<mat::Index>(w % warps_per_pair);
    const mat::Index first = group * kSpmmRhsPerWarp;
    const mat::Index live = std::min(kSpmmRhsPerWarp, k - first);
    const mat::Index tiles = ceil_div<mat::Index>(live, 16);
    // Portions (column halves) of 16-column tile t holding live RHS: a
    // tile with 8 or fewer live columns leaves TR/BR out.
    const auto halves = [&](mat::Index t) { return live - 16 * t > 8 ? 2u : 1u; };
    // A warp with at most 8 live columns fills all four A portions; its
    // 8-column x group goes to B's column half of the slot's block-row.
    // A wider warp keeps the two-slot layout, where every column half of B
    // carries RHS columns of both slots.
    const bool four_slots = live <= 8;
    const auto col_half = [&](unsigned row, unsigned h) { return four_slots ? row : h; };
    const mat::Index r1 = 2 * pair;
    const mat::Index r2 = 2 * pair + 1;
    const bool has_r2 = r2 < brows;
    const BlockRowPair rows(ctx, block_row_ptr, pair, brows);

    // One A fragment per iteration, reused by every tile's MMA; one B
    // fragment and one accumulator per tile.
    tc::FragA a_frag;
    std::array<tc::FragB, kSpmmRhsPerWarp / 16> b_frags;
    std::array<tc::FragAcc, kSpmmRhsPerWarp / 16> acc_frags;
    walk_block_row_pair(
        ctx, a, cache, rows, seg.begin, seg.end, four_slots, a_frag, b_frags[0],
        [&](const PairSlot& slot, const DecodedBlock& dec) {
          // Per-column vector decode: in the B portion of (the slot's
          // k_half, column half h) of tile t, lane holds the column of RHS
          // first + 16t + 8h + lane/4 and its rows 2*(lane%4) and +1 as one
          // binary16 word of the fragment stack, so each 8x8 x tile is 32
          // consecutive words (4 sectors) in one instruction, loaded
          // straight into the register pair. Rows past ncols read the
          // stack's zero pads, which only multiply structural zeros; lanes
          // of columns past k load nothing and keep zero B halves, whose
          // outputs the extraction mask drops.
          for (mat::Index t = 0; t < tiles; ++t) {
            for (unsigned h = 0; h < halves(t); ++h) {
              const mat::Index col0 = first + 16 * t + 8 * h;
              const std::uint32_t word0 = (col0 / 8 * bcols + dec.block_col) * sim::kWarpSize;
              const mat::Index live_lanes = 4 * std::min<mat::Index>(k - col0, 8);
              const std::uint32_t mask =
                  live_lanes == sim::kWarpSize ? sim::kFullMask : (1u << live_lanes) - 1;
              sim::Lanes<std::uint32_t> xidx{};
              for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
                xidx[lane] = word0 + lane;
              }
              ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);
              const auto bv = ctx.gather(xs, xidx, mask);
              const unsigned b_reg = slot.b_reg(col_half(slot.row, h));
              for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
                b_frags[t].x(lane, b_reg) = bv[lane].lo;
                b_frags[t].x(lane, b_reg + 1) = bv[lane].hi;
              }
            }
          }
        },
        [&] {
          for (mat::Index t = 0; t < tiles; ++t) {
            tc::wmma_mma(ctx, acc_frags[t], a_frag, b_frags[t], acc_frags[t]);
          }
        });

    // Extract every live portion into the column-major Y stack: in the
    // accumulator portion of (row half = slot, column half) of tile t,
    // lane owns (row lane/4, RHS first + 16t + 8h + 2*(lane%4), +1). A
    // warp of a split pair hands each register off first, and only the
    // last arrival stores the sums.
    const sim::ProfRange prof_extract(ctx, "extract");
    const auto for_each_store = [&](auto&& store) {
      for (mat::Index t = 0; t < tiles; ++t) {
        for (unsigned row = 0; row < (has_r2 ? 2u : 1u); ++row) {
          const mat::Index br = row == 0 ? r1 : r2;
          for (unsigned h = 0; h < halves(t); ++h) {
            const unsigned reg0 = 2 * tc::portion_pair(row, col_half(row, h));
            const mat::Index col0 = first + 16 * t + 8 * h;
            sim::Lanes<std::uint32_t> yidx1{};
            sim::Lanes<std::uint32_t> yidx2{};
            RowPartials p1;
            RowPartials p2;
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              const std::uint32_t r = br * 8 + lane / 4;
              const std::uint32_t c1 = col0 + 2 * (lane % 4);
              const std::uint32_t entry = row * 8 + lane / 4;
              if (r < nrows && c1 < k) {
                yidx1[lane] = c1 * y_stride + r;
                p1.value[lane] = acc_frags[t].x(lane, reg0);
                p1.entry[lane] = c1 * 16 + entry;
                p1.mask |= 1u << lane;
              }
              if (r < nrows && c1 + 1 < k) {
                yidx2[lane] = (c1 + 1) * y_stride + r;
                p2.value[lane] = acc_frags[t].x(lane, reg0 + 1);
                p2.entry[lane] = (c1 + 1) * 16 + entry;
                p2.mask |= 1u << lane;
              }
            }
            ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
            store(yidx1, p1);
            store(yidx2, p2);
          }
        }
      }
    };
    const auto store_y = [&](const sim::Lanes<std::uint32_t>& yidx, const RowPartials& p) {
      ctx.scatter(ys, yidx, p.value, p.mask);
    };
    if (seg.count == 1) {
      for_each_store(store_y);
      return;
    }
    const SegmentHandOff hand_off(seg, scratch.span(), k * 16, tickets.span(),
                                  pair * warps_per_pair + group);
    for_each_store([&](const sim::Lanes<std::uint32_t>&, const RowPartials& p) {
      hand_off.publish(ctx, p);
    });
    if (!hand_off.last(ctx)) {
      return;
    }
    for_each_store([&](const sim::Lanes<std::uint32_t>& yidx, RowPartials& p) {
      hand_off.combine(ctx, p);
      store_y(yidx, p);
    });
    hand_off.finish(ctx);
  });
}

}  // namespace spaden::kern
