#include "kernels/formats_device.hpp"

#include <vector>

namespace spaden::kern {

DeviceCsr DeviceCsr::upload(sim::DeviceMemory& mem, const mat::Csr& a) {
  DeviceCsr d;
  d.row_ptr = mem.upload(a.row_ptr, "csr.row_ptr");
  d.col_idx = mem.upload(a.col_idx, "csr.col_idx");
  d.val = mem.upload(a.val, "csr.val");
  return d;
}

void DeviceCsr::add_footprint(Footprint& fp) const {
  fp.add("csr.row_ptr", row_ptr.bytes());
  fp.add("csr.col_idx", col_idx.bytes());
  fp.add("csr.val", val.bytes());
}

DeviceCoo DeviceCoo::upload(sim::DeviceMemory& mem, const mat::Coo& a) {
  DeviceCoo d;
  d.row = mem.upload(a.row, "coo.row");
  d.col = mem.upload(a.col, "coo.col");
  d.val = mem.upload(a.val, "coo.val");
  return d;
}

void DeviceCoo::add_footprint(Footprint& fp) const {
  fp.add("coo.row", row.bytes());
  fp.add("coo.col", col.bytes());
  fp.add("coo.val", val.bytes());
}

DeviceBsr DeviceBsr::upload(sim::DeviceMemory& mem, const mat::Bsr& a) {
  DeviceBsr d;
  d.block_dim = a.block_dim;
  d.brows = a.brows;
  d.block_row_ptr = mem.upload(a.block_row_ptr, "bsr.block_row_ptr");
  d.block_col = mem.upload(a.block_col, "bsr.block_col");
  d.val = mem.upload(a.val, "bsr.val");
  return d;
}

void DeviceBsr::add_footprint(Footprint& fp) const {
  fp.add("bsr.block_row_ptr", block_row_ptr.bytes());
  fp.add("bsr.block_col", block_col.bytes());
  fp.add("bsr.val", val.bytes());
}

DeviceBitBsr DeviceBitBsr::upload(sim::DeviceMemory& mem, const mat::BitBsr& a) {
  std::vector<BitBsrHeader> headers(a.num_blocks());
  for (std::size_t b = 0; b < headers.size(); ++b) {
    headers[b] = {a.bitmap[b], a.block_col[b], a.val_offset[b]};
  }
  DeviceBitBsr d;
  d.brows = a.brows;
  d.block_row_ptr = mem.upload(a.block_row_ptr, "bitbsr.block_row_ptr");
  d.headers = mem.upload(std::move(headers), "bitbsr.headers");
  d.values = mem.upload(a.values, "bitbsr.values");
  return d;
}

void DeviceBitBsr::add_footprint(Footprint& fp) const {
  fp.add("bitbsr.block_row_ptr", block_row_ptr.bytes());
  fp.add("bitbsr.headers", headers.bytes());
  fp.add("bitbsr.value_count", sizeof(mat::Index));
  fp.add("bitbsr.values", values.bytes());
}

san::FormatReport DeviceCsr::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_csr(nrows, ncols, row_ptr.host(), col_idx.host(), val.host().size());
}

san::FormatReport DeviceCoo::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_coo(nrows, ncols, row.host(), col.host(), val.host().size(),
                        /*require_canonical=*/true);
}

san::FormatReport DeviceBsr::check(mat::Index nrows, mat::Index ncols) const {
  return san::check_bsr(nrows, ncols, block_dim, block_row_ptr.host(), block_col.host(),
                        val.host());
}

san::FormatReport DeviceBitBsr::check(mat::Index nrows, mat::Index ncols) const {
  const std::vector<BitBsrHeader>& h = headers.host();
  std::vector<mat::Index> block_col(h.size());
  std::vector<std::uint64_t> bitmap(h.size());
  std::vector<mat::Index> val_offset(h.size() + 1);
  for (std::size_t b = 0; b < h.size(); ++b) {
    block_col[b] = h[b].block_col;
    bitmap[b] = h[b].bitmap;
    val_offset[b] = h[b].val_offset;
  }
  val_offset.back() = static_cast<mat::Index>(values.size());
  return san::check_bitbsr(nrows, ncols, block_row_ptr.host(), block_col, bitmap, val_offset,
                           values.size());
}

}  // namespace spaden::kern
