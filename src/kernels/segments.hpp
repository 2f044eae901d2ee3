// Segment plans: filling an underfilled device.
//
// The paper's kernel gives each warp one block-row pair (§4.3), so a matrix
// with few block-rows launches few warps, and the timing model divides
// every throughput term by the launch's occupancy (sim::launch_occupancy).
// A segment plan cuts long units (block-row pairs, or block-rows for
// Spaden (unpaired)) into segments of consecutive iterations that run on
// separate warps. Each segment accumulates its own iterations from +0, like
// a whole unit does, and the segments of one unit combine in the same
// launch through an all-atomic hand-off (SegmentHandOff): every segment
// publishes its row partials with atomic_exch and takes a ticket; the warp
// that draws the last ticket exchanges every partial back out, which leaves
// the scratch zero for the next launch, and sums them in segment order from
// segment 0. So y depends neither on which warp arrives last nor on the
// device spec, the schedule or the thread count.
//
// The plan is a function of the matrix alone: per-unit segment counts
// (segment_counts) that fill the device to kFillWarps warps, cutting the
// longest units first. A launch over at least kFillWarps units gets an
// empty plan and runs one warp per unit with no descriptor load, exactly
// the unsplit kernel; a plan never launches more than kFillWarps warps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/memory.hpp"
#include "gpusim/warp.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/csr.hpp"

namespace spaden::kern {

/// Warps that saturate the L40, the larger of the two presets: 4 resident
/// warps (launch_occupancy) on each of its 142 SMs. A constant, not the
/// launch device's figure, so y never depends on the device spec.
inline constexpr std::uint64_t kFillWarps = 568;

/// Shortest segment a plan cuts. Each segment adds a hand-off (publish,
/// ticket, read-back: three dependent L2 round trips) that the timing
/// model charges as atomic accesses but cannot see as a dependency chain
/// (docs/performance_model.md deviation #4), so a short segment is
/// credited with more than it gains. No model figure gives the value. At 4
/// and below raefsky3 at 1/16 splits and overtakes cuSPARSE BSR
/// (PaperClaims.BsrWinsOnDenseBlockMatrix); 8 sits above the smallest
/// value that keeps it, 5. See docs/performance_model.md "Filling the
/// device".
inline constexpr mat::Index kMinSegmentIterations = 8;

/// Shortest segment a plan cuts: the shorter half of the shortest unit
/// that splits (9 -> 5 + 4). Without it the fill would cut a lone long unit
/// into segments of one iteration, each paying a whole hand-off.
inline constexpr mat::Index kShortestSegment = kMinSegmentIterations / 2;

/// Iterations past the end of any unit: a Segment that covers its whole
/// unit without a plan.
inline constexpr mat::Index kWholeUnit = ~mat::Index{0};

/// One warp's share of a unit, read with one 32-byte scalar load.
struct alignas(32) Segment {
  mat::Index unit = 0;   ///< block-row pair, or block-row for Spaden (unpaired)
  mat::Index begin = 0;  ///< first iteration
  mat::Index end = kWholeUnit;  ///< one past the last iteration
  /// Scratch slot of the unit's segment 0; segment s of a split unit
  /// publishes into slot scratch + s.
  mat::Index scratch = 0;
  std::uint16_t index = 0;  ///< position within the unit
  std::uint16_t count = 1;  ///< segments of the unit (1: not split)
};
static_assert(sizeof(Segment) == 32, "one segment per 32-byte load");

/// Iterations of each unit of `bb`. Paired, a unit is a block-row pair
/// and its iterations are four-slot MMAs, ceil(max(len1, len2) / 2), where
/// an odd last block-row pairs with an empty one; unpaired (Spaden
/// (unpaired)), a unit is a block-row and its iterations are its blocks.
[[nodiscard]] std::vector<mat::Index> unit_iterations(const mat::BitBsr& bb, bool paired);

/// Segment counts of a launch over units of `iterations[u]` iterations,
/// one per unit: a greedy fill. Every unit starts at one segment; while the
/// launch holds fewer than kFillWarps warps, the unit whose segments are
/// longest, ceil(iterations / count), gets one more (ties: the lowest
/// unit). A unit of at most kMinSegmentIterations never splits, and no cut
/// leaves a segment shorter than kShortestSegment; the fill stops early
/// when no unit can split further. A launch of at least kFillWarps units
/// is all ones. So a launch that nearly fills the device splits only as
/// many of its longest units as it takes to fill it.
[[nodiscard]] std::vector<mat::Index> segment_counts(std::span<const mat::Index> iterations);

/// segment_counts over the units of `a` (see unit_iterations), all ones
/// without any conversion when there are kFillWarps units or more.
[[nodiscard]] std::vector<mat::Index> segment_counts(const mat::Csr& a, bool paired);

/// A launch's segments, one per warp, units in order.
struct SegmentPlan {
  std::vector<Segment> segments;  ///< empty: one warp per unit, no plan
  mat::Index units = 0;
  mat::Index slots = 0;  ///< scratch slots: the segments of split units
};

/// Cuts unit u into `counts[u]` segments of balanced length: segment s of
/// c covers [iterations * s / c, iterations * (s + 1) / c). `counts` is
/// segment_counts(iterations) unless given (a row-sharded caller's slice of
/// the whole matrix's counts). The plan is empty when every count is 1.
[[nodiscard]] SegmentPlan plan_segments(
    std::span<const mat::Index> iterations,
    std::optional<std::span<const mat::Index>> counts = std::nullopt);

/// A segment plan uploaded for launches.
struct DeviceSegments {
  sim::Buffer<Segment> segments;
  mat::Index units = 0;
  mat::Index slots = 0;

  static DeviceSegments upload(sim::DeviceMemory& mem, const SegmentPlan& plan);
  [[nodiscard]] bool empty() const { return segments.size() == 0; }
  [[nodiscard]] std::size_t size() const { return segments.size(); }
  /// Ties (Device::set_launch_warp_ties) of a launch that runs
  /// `warps_per_segment` consecutive warps per segment: all warps of a unit
  /// stay on its first warp's virtual SM. Empty without a plan.
  [[nodiscard]] std::vector<std::uint8_t> launch_ties(mat::Index warps_per_segment) const;
};

/// One register of row partials: lane l holds the partial of entry
/// `entry[l]` of its segment's scratch block (mask bit l set), the same
/// lanes that store the row into y.
struct RowPartials {
  sim::Lanes<float> value{};
  sim::Lanes<std::uint32_t> entry{};
  std::uint32_t mask = 0;
};

/// The hand-off of one warp of a split unit. Segment s's block of `block`
/// floats starts at scratch entry (seg.scratch + s) * block; `ticket` is the
/// counter the unit's warps draw from. Every scratch and ticket access is
/// atomic, so racecheck's warp-major replay sees no plain access to order,
/// whichever warp draws the last ticket. A warp publishes all its
/// registers, then calls last(); only the last arrival combines them (in
/// the same order it published) and then finishes.
class SegmentHandOff {
 public:
  SegmentHandOff(const Segment& seg, sim::DSpan<float> scratch, std::uint32_t block,
                 sim::DSpan<std::uint32_t> tickets, std::uint32_t ticket)
      : seg_(seg), scratch_(scratch), block_(block), tickets_(tickets), ticket_(ticket) {}

  /// Exchange the warp's partials into its own slot.
  void publish(sim::WarpCtx& ctx, const RowPartials& p) const {
    if (p.mask != 0) {
      (void)ctx.atomic_exch(scratch_, entries(ctx, p, seg_.index), p.value, p.mask);
    }
  }

  /// Take a ticket (acquire-release): true in the warp that draws the last.
  [[nodiscard]] bool last(sim::WarpCtx& ctx) const {
    return ctx.atomic_fetch_add(tickets_, ticket_, 1) + 1 == seg_.count;
  }

  /// Exchange every segment's partials of `p`'s entries back out as 0 and
  /// sum them in segment order, starting from segment 0, into p.value.
  void combine(sim::WarpCtx& ctx, RowPartials& p) const {
    if (p.mask == 0) {
      return;
    }
    const sim::Lanes<float> zero{};
    p.value = ctx.atomic_exch(scratch_, entries(ctx, p, 0), zero, p.mask);
    for (std::uint32_t s = 1; s < seg_.count; ++s) {
      const sim::Lanes<float> partial = ctx.atomic_exch(scratch_, entries(ctx, p, s), zero,
                                                        p.mask);
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        p.value[lane] += partial[lane];
      }
      ctx.charge(sim::OpClass::FpAlu, sim::active_lanes(p.mask));
    }
  }

  /// Reset the ticket for the next launch.
  void finish(sim::WarpCtx& ctx) const {
    sim::Lanes<std::uint32_t> idx{};
    idx[0] = ticket_;
    (void)ctx.atomic_exch(tickets_, idx, sim::Lanes<std::uint32_t>{}, 0x1u);
  }

 private:
  sim::Lanes<std::uint32_t> entries(sim::WarpCtx& ctx, const RowPartials& p,
                                    std::uint32_t s) const {
    const std::uint32_t base = (seg_.scratch + s) * block_;
    sim::Lanes<std::uint32_t> idx{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      idx[lane] = base + p.entry[lane];
    }
    ctx.charge(sim::OpClass::IntAlu, sim::active_lanes(p.mask));
    return idx;
  }

  Segment seg_;
  sim::DSpan<float> scratch_;
  std::uint32_t block_;
  sim::DSpan<std::uint32_t> tickets_;
  std::uint32_t ticket_;
};

}  // namespace spaden::kern
