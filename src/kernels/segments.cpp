#include "kernels/segments.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace spaden::kern {

namespace {

mat::Index block_row_len(const mat::BitBsr& bb, mat::Index r) {
  return r < bb.brows ? bb.block_row_ptr[r + 1] - bb.block_row_ptr[r] : 0;
}

}  // namespace

std::vector<mat::Index> unit_iterations(const mat::BitBsr& bb, bool paired) {
  if (!paired) {
    std::vector<mat::Index> iterations(bb.brows);
    for (mat::Index r = 0; r < bb.brows; ++r) {
      iterations[r] = block_row_len(bb, r);
    }
    return iterations;
  }
  std::vector<mat::Index> iterations((static_cast<std::size_t>(bb.brows) + 1) / 2);
  for (std::size_t p = 0; p < iterations.size(); ++p) {
    const auto r1 = static_cast<mat::Index>(2 * p);
    iterations[p] =
        ceil_div<mat::Index>(std::max(block_row_len(bb, r1), block_row_len(bb, r1 + 1)), 2);
  }
  return iterations;
}

mat::Index segment_length(std::span<const mat::Index> iterations) {
  if (iterations.size() >= kFillWarps) {
    return 0;
  }
  std::uint64_t total = 0;
  mat::Index longest = 0;
  for (const mat::Index it : iterations) {
    total += it;
    longest = std::max(longest, it);
  }
  // Warps of the plan at `length`: every unit runs at least one.
  const auto warps = [&](std::uint64_t length) {
    std::uint64_t n = 0;
    for (const mat::Index it : iterations) {
      n += std::max<std::uint64_t>(1, ceil_div<std::uint64_t>(it, length));
    }
    return n;
  };
  // warps() does not rise with the length, and at the longest unit's
  // length it is the unit count, below kFillWarps: bisect.
  std::uint64_t lo = std::max<std::uint64_t>(kMinSegmentIterations,
                                             ceil_div<std::uint64_t>(total, kFillWarps));
  std::uint64_t hi = std::max<std::uint64_t>(lo, longest);
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (warps(mid) <= kFillWarps) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<mat::Index>(lo);
}

mat::Index segment_length(const mat::Csr& a, bool paired) {
  const std::uint64_t brows = ceil_div<std::uint64_t>(a.nrows, 8);
  if ((paired ? (brows + 1) / 2 : brows) >= kFillWarps) {
    return 0;
  }
  return segment_length(unit_iterations(mat::BitBsr::from_csr(a), paired));
}

SegmentPlan plan_segments(std::span<const mat::Index> iterations,
                          std::optional<mat::Index> given_length) {
  const mat::Index length = given_length ? *given_length : segment_length(iterations);
  SegmentPlan plan;
  plan.units = static_cast<mat::Index>(iterations.size());
  if (length == 0 ||
      std::none_of(iterations.begin(), iterations.end(),
                   [&](mat::Index it) { return it > length; })) {
    return plan;
  }
  for (mat::Index u = 0; u < plan.units; ++u) {
    const std::uint64_t its = iterations[u];
    const std::uint64_t count = its > length ? ceil_div<std::uint64_t>(its, length) : 1;
    SPADEN_REQUIRE(count <= UINT16_MAX, "unit %u of %llu iterations needs %llu segments", u,
                   static_cast<unsigned long long>(its),
                   static_cast<unsigned long long>(count));
    for (std::uint64_t s = 0; s < count; ++s) {
      Segment seg;
      seg.unit = u;
      seg.begin = static_cast<mat::Index>(its * s / count);
      seg.end = static_cast<mat::Index>(its * (s + 1) / count);
      seg.scratch = count > 1 ? plan.slots : 0;
      seg.index = static_cast<std::uint16_t>(s);
      seg.count = static_cast<std::uint16_t>(count);
      plan.segments.push_back(seg);
    }
    if (count > 1) {
      plan.slots += static_cast<mat::Index>(count);
    }
  }
  return plan;
}

DeviceSegments DeviceSegments::upload(sim::DeviceMemory& mem, const SegmentPlan& plan) {
  DeviceSegments out;
  out.units = plan.units;
  out.slots = plan.slots;
  if (!plan.segments.empty()) {
    out.segments = mem.upload(plan.segments, "segments");
  }
  return out;
}

std::vector<std::uint8_t> DeviceSegments::launch_ties(mat::Index warps_per_segment) const {
  std::vector<std::uint8_t> ties;
  ties.reserve(segments.size() * warps_per_segment);
  for (const Segment& seg : segments.host()) {
    for (mat::Index g = 0; g < warps_per_segment; ++g) {
      ties.push_back(seg.index != 0 || g != 0 ? 1 : 0);
    }
  }
  return ties;
}

}  // namespace spaden::kern
