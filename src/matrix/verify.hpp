// spaden-verify: structural-invariant checking for the sparse formats.
//
// The bitmap formats make correctness subtle by construction — a value's
// location is a prefix popcount away from its bitmap, so a single corrupted
// bit silently misindexes the value array. The host-side validate() methods
// throw on the first violation; this module instead *enumerates* violations
// (named, located, capped in detail but exactly counted) so corrupted data
// can be diagnosed rather than merely rejected, and so the engine can gate
// every upload — the check future in-place mutation passes must re-run.
//
// Two layers:
//   * raw-array checkers (check_csr, check_bitbsr, ...) that take the
//     individual arrays, so device-resident mirrors (sim::Buffer host
//     vectors) can be verified exactly as uploaded;
//   * convenience overloads san::check_format(const mat::X&) for the host
//     structs.
//
// Invariant catalog (names appear verbatim in Violation::invariant):
//   <fmt>.array-sizes       index/bitmap/value array lengths are consistent
//   <fmt>.row-ptr-front     row pointer starts at 0
//   <fmt>.row-ptr-monotone  row pointer is non-decreasing
//   <fmt>.row-ptr-end       row pointer ends at the entry count
//   <fmt>.col-bounds        column indices are < ncols (or bcols)
//   <fmt>.col-order         column indices ascend within a row
//   <fmt>.col-dup           no duplicate column within a row
//   bit*.empty-block        every stored block has at least one set bit
//   bit*.popcount           popcount(bitmap[b]) == val_offset[b+1] - val_offset[b]
//   bit*.val-offset-*       exclusive scan starts at 0, is monotone, ends at nnz
//   bit*.padding-bits       bitmap bits beyond nrows/ncols are clear
//   bsr.padding-zero        dense-block values beyond nrows/ncols are 0
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/bitbsr.hpp"
#include "matrix/bitbsr_wide.hpp"
#include "matrix/bsr.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"

namespace spaden::san {

using mat::Index;

/// One named, located invariant violation.
struct Violation {
  std::string invariant;  ///< catalog name, e.g. "bitbsr.popcount"
  std::string location;   ///< e.g. "block 17 (block-row 2)"
  std::string message;    ///< what was found vs. what the invariant requires
};

/// Detailed violations are capped here; FormatReport::violation_count stays
/// exact beyond the cap.
inline constexpr std::size_t kMaxViolationDetails = 16;

struct FormatReport {
  std::string format;                 ///< "CSR", "bitBSR", ...
  std::uint64_t checks = 0;           ///< elementary invariant evaluations
  std::uint64_t violation_count = 0;  ///< exact total
  std::vector<Violation> violations;  ///< first kMaxViolationDetails findings

  [[nodiscard]] bool ok() const { return violation_count == 0; }
  /// One line when clean; one header plus one "[name] location: message"
  /// line per detailed violation otherwise.
  [[nodiscard]] std::string summary() const;
};

// --- raw-array checkers (device-mirror friendly) ---------------------------

FormatReport check_csr(Index nrows, Index ncols, const std::vector<Index>& row_ptr,
                       const std::vector<Index>& col_idx, std::size_t nval);

/// `require_canonical` additionally demands (row, col)-sorted, duplicate-free
/// triplets — what Csr::to_coo produces and the edge-centric kernels assume.
FormatReport check_coo(Index nrows, Index ncols, const std::vector<Index>& row,
                       const std::vector<Index>& col, std::size_t nval,
                       bool require_canonical);

FormatReport check_bsr(Index nrows, Index ncols, Index block_dim,
                       const std::vector<Index>& block_row_ptr,
                       const std::vector<Index>& block_col, const std::vector<float>& val);

FormatReport check_bitbsr(Index nrows, Index ncols, const std::vector<Index>& block_row_ptr,
                          const std::vector<Index>& block_col,
                          const std::vector<std::uint64_t>& bitmap,
                          const std::vector<Index>& val_offset, std::size_t nvalues);

/// bitBSR16: `bitmap_words` holds kWords (= 4) little-endian words per block,
/// flattened — the layout both the host struct and the device mirror use.
FormatReport check_bitbsr_wide(Index nrows, Index ncols,
                               const std::vector<Index>& block_row_ptr,
                               const std::vector<Index>& block_col,
                               const std::uint64_t* bitmap_words, std::size_t bitmap_len,
                               const std::vector<Index>& val_offset, std::size_t nvalues);

// --- host-struct conveniences ----------------------------------------------

FormatReport check_format(const mat::Csr& a);
FormatReport check_format(const mat::Coo& a);
FormatReport check_format(const mat::Bsr& a);
FormatReport check_format(const mat::BitBsr& a);
FormatReport check_format(const mat::BitBsr16& a);

/// SPADEN_VERIFY_FORMAT env gate for EngineOptions::verify_format: any
/// non-empty value other than "0" enables the post-prepare check.
[[nodiscard]] bool default_verify_format();

}  // namespace spaden::san
