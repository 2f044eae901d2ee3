#include "matrix/generate.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace spaden::mat {

namespace {

/// Value bounded away from zero so binary16 rounding cannot create new
/// structural zeros (which would desynchronize bitmaps and value arrays in
/// round-trip tests).
float random_value(Rng& rng) {
  const float mag = rng.next_float(0.1f, 1.0f);
  return rng.next_bool(0.5) ? mag : -mag;
}

}  // namespace

Coo random_uniform(Index nrows, Index ncols, std::size_t nnz, std::uint64_t seed) {
  SPADEN_REQUIRE(nnz <= static_cast<std::size_t>(nrows) * ncols,
                 "nnz %zu exceeds matrix capacity", nnz);
  require_index_count(nnz, "nonzeros", "random_uniform");
  Rng rng(seed);
  Coo out;
  out.nrows = nrows;
  out.ncols = ncols;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(nnz * 2);
  while (seen.size() < nnz) {
    const auto r = static_cast<Index>(rng.next_below(nrows));
    const auto c = static_cast<Index>(rng.next_below(ncols));
    if (seen.insert(static_cast<std::uint64_t>(r) * ncols + c).second) {
      out.row.push_back(r);
      out.col.push_back(c);
      out.val.push_back(random_value(rng));
    }
  }
  return out;
}

Coo rmat(unsigned scale, double edge_factor, std::uint64_t seed, double a, double b, double c,
         double d) {
  SPADEN_REQUIRE(scale >= 1 && scale <= 30, "rmat scale %u out of range", scale);
  const double sum = a + b + c + d;
  SPADEN_REQUIRE(std::abs(sum - 1.0) < 1e-9, "rmat partition must sum to 1 (got %g)", sum);
  const Index n = Index{1} << scale;
  const double want = edge_factor * static_cast<double>(n);
  SPADEN_REQUIRE(std::isfinite(want) && want >= 0.0,
                 "rmat edge factor %g must be finite and non-negative", edge_factor);
  // Duplicates combine only after generation, so every edge is stored first.
  require_index_count(static_cast<std::uint64_t>(std::min(want, 0x1p63)), "edges", "rmat");
  Rng rng(seed);
  const auto edges = static_cast<std::size_t>(want);
  Coo out;
  out.nrows = n;
  out.ncols = n;
  out.row.reserve(edges);
  out.col.reserve(edges);
  out.val.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    Index r = 0;
    Index col = 0;
    for (unsigned level = 0; level < scale; ++level) {
      const double u = rng.next_double();
      const Index bit = Index{1} << (scale - 1 - level);
      if (u < a) {
        // top-left: nothing
      } else if (u < a + b) {
        col |= bit;
      } else if (u < a + b + c) {
        r |= bit;
      } else {
        r |= bit;
        col |= bit;
      }
    }
    out.row.push_back(r);
    out.col.push_back(col);
    out.val.push_back(random_value(rng));
  }
  out.combine_duplicates();
  return out;
}

Coo banded(Index n, Index bandwidth, double fill, std::uint64_t seed) {
  SPADEN_REQUIRE(fill >= 0.0 && fill <= 1.0, "fill %g out of [0,1]", fill);
  Rng rng(seed);
  Coo out;
  out.nrows = n;
  out.ncols = n;
  for (Index r = 0; r < n; ++r) {
    const Index lo = r > bandwidth ? r - bandwidth : 0;
    const Index hi = std::min<Index>(n - 1, r + bandwidth);
    for (Index c = lo; c <= hi; ++c) {
      if (c == r || rng.next_bool(fill)) {
        out.row.push_back(r);
        out.col.push_back(c);
        out.val.push_back(random_value(rng));
      }
    }
  }
  return out;
}

Csr banded_spd(Index n, Index bandwidth, double fill, std::uint64_t seed) {
  Rng rng(seed);
  Coo coo;
  coo.nrows = n;
  coo.ncols = n;
  // Strict upper triangle in-band, mirrored for symmetry.
  std::vector<double> row_abs_sum(n, 0.0);
  for (Index r = 0; r < n; ++r) {
    const Index hi = std::min<Index>(n - 1, r + bandwidth);
    for (Index c = r + 1; c <= hi; ++c) {
      if (rng.next_bool(fill)) {
        const float v = random_value(rng);
        coo.row.push_back(r);
        coo.col.push_back(c);
        coo.val.push_back(v);
        coo.row.push_back(c);
        coo.col.push_back(r);
        coo.val.push_back(v);
        row_abs_sum[r] += std::abs(static_cast<double>(v));
        row_abs_sum[c] += std::abs(static_cast<double>(v));
      }
    }
  }
  // Diagonal dominance => symmetric positive definite.
  for (Index r = 0; r < n; ++r) {
    coo.row.push_back(r);
    coo.col.push_back(r);
    coo.val.push_back(static_cast<float>(row_abs_sum[r] + 1.0));
  }
  return Csr::from_coo(coo);
}

namespace {

struct CategoryRange {
  int lo;
  int hi;
};

constexpr CategoryRange kSparseRange{1, 32};
constexpr CategoryRange kMediumRange{33, 48};
constexpr CategoryRange kDenseRange{49, 64};

/// Sample a per-block nnz in [range.lo, range.hi] with skew `shape`:
/// u^shape stretched over the range. shape < 1 skews toward hi, > 1 toward
/// lo, == 1 is uniform.
int sample_block_nnz(Rng& rng, CategoryRange range, double shape) {
  const double u = std::pow(rng.next_double(), shape);
  const int span = range.hi - range.lo + 1;
  const int v = range.lo + static_cast<int>(u * span);
  return std::min(v, range.hi);
}

/// Shape parameter so that the expected sample is approximately
/// `target_mean` (E[u^s] = 1/(s+1) over the range).
double solve_shape(CategoryRange range, double target_mean) {
  const double lo = range.lo;
  const double hi = range.hi;
  const double clamped = std::clamp(target_mean, lo + 0.2, hi - 0.2);
  const double s = (hi - lo) / (clamped - lo) - 1.0;
  return std::clamp(s, 0.02, 50.0);
}

}  // namespace

Csr synthesize(const MatrixProfile& profile, double scale, std::uint64_t seed) {
  SPADEN_REQUIRE(scale > 0.0 && scale <= 1.0, "scale %g out of (0, 1]", scale);
  SPADEN_REQUIRE(profile.nrow >= 16 && profile.nnz > 0 && profile.bnnz > 0,
                 "profile '%s' has empty targets", profile.name.c_str());
  Rng rng(seed ^ 0x5FADE27ull);

  // Scaled targets. At scale 1 these equal the Table 1 figures exactly.
  const auto nrow = std::max<Index>(
      16, static_cast<Index>(std::llround(static_cast<double>(profile.nrow) * scale)));
  const Index brows = ceil_div<Index>(nrow, 8);
  const Index bcols = brows;
  const auto max_blocks = static_cast<std::size_t>(brows) * bcols;
  auto bnnz = std::max<std::size_t>(
      brows, static_cast<std::size_t>(std::llround(static_cast<double>(profile.bnnz) * scale)));
  bnnz = std::min(bnnz, max_blocks);
  auto nnz = static_cast<std::size_t>(std::llround(static_cast<double>(profile.nnz) * scale));
  nnz = std::clamp(nnz, bnnz, bnnz * 64);

  // Normalize category fractions and derive the dominant category's fill
  // skew so the expected total lands near the target (the correction pass
  // below makes it exact).
  double fs = profile.sparse_frac;
  double fm = profile.medium_frac;
  double fd = profile.dense_frac;
  const double fsum = fs + fm + fd;
  SPADEN_REQUIRE(fsum > 0, "profile '%s': category fractions all zero", profile.name.c_str());
  fs /= fsum;
  fm /= fsum;
  fd /= fsum;

  const double target_mean = static_cast<double>(nnz) / static_cast<double>(bnnz);
  double sparse_shape = 1.0;
  double medium_shape = 1.0;
  double dense_shape = 1.0;
  const double mean_medium = 0.5 * (kMediumRange.lo + kMediumRange.hi);
  const double mean_dense = 0.5 * (kDenseRange.lo + kDenseRange.hi);
  const double mean_sparse = 0.5 * (kSparseRange.lo + kSparseRange.hi);
  if (fs >= fm && fs >= fd) {
    const double needed = (target_mean - fm * mean_medium - fd * mean_dense) / std::max(fs, 1e-9);
    sparse_shape = solve_shape(kSparseRange, needed);
  } else if (fd >= fs && fd >= fm) {
    const double needed = (target_mean - fs * mean_sparse - fm * mean_medium) / std::max(fd, 1e-9);
    dense_shape = solve_shape(kDenseRange, needed);
  } else {
    const double needed = (target_mean - fs * mean_sparse - fd * mean_dense) / std::max(fm, 1e-9);
    medium_shape = solve_shape(kMediumRange, needed);
  }

  // ---- place bnnz non-empty blocks -------------------------------------
  struct Block {
    Index brow;
    Index bcol;
    int nnz;
    int cap;
  };
  std::vector<Block> blocks;
  blocks.reserve(bnnz);

  // Spread blocks across block-rows as evenly as the total allows.
  const auto per_row_base = static_cast<Index>(bnnz / brows);
  auto remainder = static_cast<Index>(bnnz % brows);
  const auto band = std::max<Index>(
      4, static_cast<Index>(profile.band_width * static_cast<double>(bcols)));

  std::unordered_set<Index> used_cols;
  for (Index br = 0; br < brows; ++br) {
    Index want = per_row_base;
    if (remainder > 0) {
      ++want;
      --remainder;
    }
    want = std::min(want, bcols);
    used_cols.clear();
    // Valid rows of this block-row (the last block-row may be partial).
    const Index valid_rows = std::min<Index>(8, nrow - br * 8);
    Index attempts = 0;
    while (static_cast<Index>(used_cols.size()) < want) {
      Index bc;
      if (rng.next_bool(profile.diag_focus) && attempts < want * 8) {
        // In-band placement around the diagonal.
        const auto lo = br > band ? br - band : 0;
        const auto hi = std::min<Index>(bcols - 1, br + band);
        bc = lo + static_cast<Index>(rng.next_below(hi - lo + 1));
      } else {
        bc = static_cast<Index>(rng.next_below(bcols));
      }
      ++attempts;
      if (!used_cols.insert(bc).second) {
        continue;
      }
      const Index valid_cols = std::min<Index>(8, nrow - bc * 8);
      blocks.push_back(Block{br, bc, 0, static_cast<int>(valid_rows * valid_cols)});
    }
  }
  SPADEN_ASSERT(blocks.size() == bnnz, "placed %zu blocks, wanted %zu", blocks.size(), bnnz);

  // Partial blocks at the matrix edge cap below 64 elements, which can make
  // a rounded-down scaled target unreachable (e.g. raefsky3's all-full
  // blocks); clamp to the placed capacity.
  std::size_t cap_total = 0;
  for (const auto& blk : blocks) {
    cap_total += static_cast<std::size_t>(blk.cap);
  }
  nnz = std::min(nnz, cap_total);

  // ---- assign per-block nnz by category ---------------------------------
  std::size_t total = 0;
  for (auto& blk : blocks) {
    const double u = rng.next_double();
    int n;
    if (u < fs) {
      n = sample_block_nnz(rng, kSparseRange, sparse_shape);
    } else if (u < fs + fm) {
      n = sample_block_nnz(rng, kMediumRange, medium_shape);
    } else {
      n = sample_block_nnz(rng, kDenseRange, dense_shape);
    }
    blk.nnz = std::clamp(n, 1, blk.cap);
    total += static_cast<std::size_t>(blk.nnz);
  }

  // ---- correction pass: hit the nnz target exactly ----------------------
  std::size_t stall = 0;
  while (total != nnz && stall < blocks.size() * 64) {
    auto& blk = blocks[rng.next_below(blocks.size())];
    if (total < nnz && blk.nnz < blk.cap) {
      ++blk.nnz;
      ++total;
      stall = 0;
    } else if (total > nnz && blk.nnz > 1) {
      --blk.nnz;
      --total;
      stall = 0;
    } else {
      ++stall;
    }
  }
  SPADEN_ASSERT(total == nnz, "correction pass failed: total %zu != target %zu", total, nnz);

  // ---- materialize bit positions and triplets ---------------------------
  Coo coo;
  coo.nrows = nrow;
  coo.ncols = nrow;
  coo.row.reserve(nnz);
  coo.col.reserve(nnz);
  coo.val.reserve(nnz);
  for (const auto& blk : blocks) {
    const Index valid_rows = std::min<Index>(8, nrow - blk.brow * 8);
    const Index valid_cols = std::min<Index>(8, nrow - blk.bcol * 8);
    const auto picks = rng.sample_distinct(valid_rows * valid_cols,
                                           static_cast<std::uint32_t>(blk.nnz));
    for (const std::uint32_t p : picks) {
      const Index lr = p / valid_cols;
      const Index lc = p % valid_cols;
      coo.row.push_back(blk.brow * 8 + lr);
      coo.col.push_back(blk.bcol * 8 + lc);
      coo.val.push_back(random_value(rng));
    }
  }
  return Csr::from_coo(coo);
}

}  // namespace spaden::mat
