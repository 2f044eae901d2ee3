// Sparse matrix - dense matrix multiplication (SpMM), C = A * B.
//
// The paper's §7 names SpMM as the next target for bitBSR on dense matrix
// units; this module implements that extension. With a dense right-hand
// side, every 8x8 bitBSR block multiplies a full 8-column B tile, lifting
// the tensor-core utilization from SpMV's 2 useful columns per fragment to
// all 16 — the economics that make TC-SpMM far easier than TC-SpMV (§1).
//
// Two device kernels are provided:
//   spmm_csr    — row-parallel CUDA-core baseline (cusparse csrmm-style)
//   spmm_spaden — bitBSR blocks decoded straight into fragment registers,
//                 one m16n16k16 MMA per block pair per 8-column tile
#pragma once

#include "gpusim/device.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace spaden::kern {

struct DeviceBitBsr;
class BitBsrDecodeCache;

struct SpmmResult {
  mat::Dense c;
  sim::LaunchResult launch;
  [[nodiscard]] double gflops(std::size_t nnz, mat::Index k) const {
    return 2.0 * static_cast<double>(nnz) * k / launch.seconds() / 1e9;
  }
};

/// CUDA-core baseline: one warp per (row, 32-column tile of B); B rows are
/// read coalesced, fp32 throughout.
SpmmResult spmm_csr(sim::Device& device, const mat::Csr& a, const mat::Dense& b);

/// Tensor-core bitBSR SpMM: one warp per (block-row pair, 8-column tile);
/// values in binary16, accumulation in fp32.
SpmmResult spmm_spaden(sim::Device& device, const mat::Csr& a, const mat::Dense& b);

/// Strided multi-RHS SpMM over an *already prepared* device bitBSR — the
/// spaden-serve request-fusion path. X and Y are column-major stacks of k
/// SpMV vectors whose column strides are xs.size / k and ys.size / k (RHS c
/// at X[c*x_stride..], output c at Y[c*y_stride..]), not the row-major
/// Dense of spmm_spaden, so per-request results demultiplex as column
/// slices. The x stride must be
/// sector-aligned with zero pads past ncols (kern::pack_column_stack), and
/// k * stride must fit the kernel's 32-bit lane indices. Each lane loads
/// its two B rows with one 8-byte gather2, so a decoded block slot reads
/// its 8x8 x tile as 8 sectors in one instruction. Per column the
/// arithmetic mirrors the Spaden SpMV kernel — same decode, same half
/// conversion, same ascending-k MMA accumulation; x rows past ncols read
/// +0 pads where SpMV clamps, which meet only structural zeros — so each
/// output column is bit-identical to one SpadenKernel::run with that
/// column's x (the serve acceptance anchor); only the modeled cost differs
/// (one fragment serves 8 columns instead of 2 of 16). One warp per
/// (block-row pair, 8-column tile).
sim::LaunchResult spmm_spaden_strided(sim::Device& device, const DeviceBitBsr& a,
                                      const BitBsrDecodeCache* cache,
                                      sim::DSpan<const float> xs, sim::DSpan<float> ys,
                                      mat::Index k, mat::Index nrows, mat::Index ncols);

/// Error bound for comparing an SpMM result against the fp64 reference.
double spmm_tolerance(const mat::Csr& a, bool half_precision_values);

}  // namespace spaden::kern
