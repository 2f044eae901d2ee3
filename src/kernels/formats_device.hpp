// Device-resident copies of the sparse formats, shared by the kernels.
//
// Upload happens in each kernel's prepare() step; these helpers also
// itemize the footprint for the Figure 10b comparison.
#pragma once

#include "gpusim/memory.hpp"
#include "kernels/kernel.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/bsr.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/verify.hpp"

namespace spaden::kern {

// Each device format exposes check(nrows, ncols): the spaden-verify
// structural-invariant sweep over the *uploaded* host mirrors — what
// SpmvKernel::check_format() and the engine's verify_format gate run.

struct DeviceCsr {
  sim::Buffer<mat::Index> row_ptr;
  sim::Buffer<mat::Index> col_idx;
  sim::Buffer<float> val;

  static DeviceCsr upload(sim::DeviceMemory& mem, const mat::Csr& a);
  void add_footprint(Footprint& fp) const;
  [[nodiscard]] san::FormatReport check(mat::Index nrows, mat::Index ncols) const;
};

struct DeviceCoo {
  sim::Buffer<mat::Index> row;
  sim::Buffer<mat::Index> col;
  sim::Buffer<float> val;

  static DeviceCoo upload(sim::DeviceMemory& mem, const mat::Coo& a);
  void add_footprint(Footprint& fp) const;
  /// The edge-centric kernels assume (row, col)-sorted triplets, so the
  /// check demands canonical order.
  [[nodiscard]] san::FormatReport check(mat::Index nrows, mat::Index ncols) const;
};

struct DeviceBsr {
  mat::Index block_dim = 8;
  mat::Index brows = 0;
  sim::Buffer<mat::Index> block_row_ptr;
  sim::Buffer<mat::Index> block_col;
  sim::Buffer<float> val;

  static DeviceBsr upload(sim::DeviceMemory& mem, const mat::Bsr& a);
  void add_footprint(Footprint& fp) const;
  [[nodiscard]] san::FormatReport check(mat::Index nrows, mat::Index ncols) const;
};

/// One bitBSR block's metadata packed into 16 aligned bytes: the decode
/// reads it with one broadcast load (one sector) where three arrays cost
/// three loads and three sectors. val_offset is the block's entry of the
/// host format's exclusive scan; the scan's closing entry is values.size().
struct alignas(16) BitBsrHeader {
  std::uint64_t bitmap = 0;
  mat::Index block_col = 0;
  mat::Index val_offset = 0;
};
static_assert(sizeof(BitBsrHeader) == 16, "one header per 16-byte load");

struct DeviceBitBsr {
  mat::Index brows = 0;
  sim::Buffer<mat::Index> block_row_ptr;
  sim::Buffer<BitBsrHeader> headers;  ///< num_blocks
  sim::Buffer<half> values;

  static DeviceBitBsr upload(sim::DeviceMemory& mem, const mat::BitBsr& a);
  /// Itemized as the bitBSR format (Figure 10b): the headers plus the 4-byte
  /// value count, the scan entry they leave implicit.
  void add_footprint(Footprint& fp) const;
  /// Unpacks the headers into the format's arrays, so block_col bounds and
  /// order, val_offset order and the popcount/val_offset consistency are
  /// checked against block_row_ptr and values like the host format.
  [[nodiscard]] san::FormatReport check(mat::Index nrows, mat::Index ncols) const;
};

}  // namespace spaden::kern
