// Coordinate (COO) sparse matrix format: parallel (row, col, value) triplets.
//
// COO is the interchange format of the library: generators and the Matrix
// Market reader produce COO, every other format converts through it, and the
// Gunrock-style edge-centric SpMV kernel consumes it directly.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace spaden::mat {

using Index = std::uint32_t;

/// Most nonzeros a matrix may hold: row_ptr, block_row_ptr and val_offset
/// store offsets as Index, so one more would wrap them.
inline constexpr std::uint64_t kMaxIndexCount = std::numeric_limits<Index>::max();

/// Throws a named spaden::Error when `count` `what` (e.g. "nonzeros") of
/// `who` (e.g. "rmat") is above kMaxIndexCount. Callers check before they
/// size anything from the count.
void require_index_count(std::uint64_t count, const char* what, const char* who);

struct Coo {
  Index nrows = 0;
  Index ncols = 0;
  std::vector<Index> row;
  std::vector<Index> col;
  std::vector<float> val;

  [[nodiscard]] std::size_t nnz() const { return val.size(); }

  /// Sort triplets by (row, col). Stable with respect to duplicate keys.
  void sort();

  /// Sum duplicate (row, col) entries and drop explicit zeros produced by
  /// cancellation. Requires sorted order; sorts if needed.
  void combine_duplicates();

  /// Validate shape/index invariants; throws spaden::Error on violation.
  void validate() const;

  /// True when triplets are sorted by (row, col) with no duplicates.
  [[nodiscard]] bool is_canonical() const;
};

}  // namespace spaden::mat
