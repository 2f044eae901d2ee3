#include "kernels/segments.hpp"

#include <algorithm>
#include <queue>

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

std::vector<mat::Index> segment_counts(std::span<const mat::Index> iterations) {
  std::vector<mat::Index> counts(iterations.size(), 1);
  if (counts.size() >= kFillWarps) {
    return counts;
  }
  // Longest current segment first, then the lowest unit.
  struct Candidate {
    std::uint64_t longest;
    mat::Index unit;
    bool operator<(const Candidate& o) const {
      return longest != o.longest ? longest < o.longest : unit > o.unit;
    }
  };
  // One more segment for unit u keeps every segment at least
  // kShortestSegment long.
  const auto can_split = [&](mat::Index u) {
    return iterations[u] > kMinSegmentIterations &&
           iterations[u] / (std::uint64_t{counts[u]} + 1) >= kShortestSegment;
  };
  std::priority_queue<Candidate> queue;
  for (mat::Index u = 0; u < counts.size(); ++u) {
    if (can_split(u)) {
      queue.push({iterations[u], u});
    }
  }
  for (std::uint64_t warps = counts.size(); warps < kFillWarps && !queue.empty(); ++warps) {
    const mat::Index u = queue.top().unit;
    queue.pop();
    ++counts[u];
    if (can_split(u)) {
      queue.push({ceil_div<std::uint64_t>(iterations[u], counts[u]), u});
    }
  }
  return counts;
}

std::vector<mat::Index> segment_counts(const mat::Csr& a, bool paired) {
  const std::uint64_t brows = ceil_div<std::uint64_t>(a.nrows, 8);
  const std::uint64_t units = paired ? (brows + 1) / 2 : brows;
  if (units >= kFillWarps) {
    return std::vector<mat::Index>(units, 1);
  }
  return segment_counts(unit_iterations(mat::BitBsr::from_csr(a), paired));
}

SegmentPlan plan_segments(std::span<const mat::Index> iterations,
                          std::optional<std::span<const mat::Index>> given_counts) {
  const std::vector<mat::Index> derived =
      given_counts ? std::vector<mat::Index>{} : segment_counts(iterations);
  const std::span<const mat::Index> counts = given_counts ? *given_counts : derived;
  SPADEN_REQUIRE(counts.size() == iterations.size(), "%zu segment counts for %zu units",
                 counts.size(), iterations.size());
  SegmentPlan plan;
  plan.units = static_cast<mat::Index>(iterations.size());
  if (std::all_of(counts.begin(), counts.end(), [](mat::Index c) { return c == 1; })) {
    return plan;
  }
  for (mat::Index u = 0; u < plan.units; ++u) {
    const std::uint64_t its = iterations[u];
    const mat::Index count = counts[u];
    SPADEN_REQUIRE(count >= 1 && count <= UINT16_MAX,
                   "unit %u of %llu iterations cannot run in %u segments", u,
                   static_cast<unsigned long long>(its), count);
    for (mat::Index s = 0; s < count; ++s) {
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
      plan.slots += count;
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
