// Per-method factory functions, wired together by make_kernel(), and the
// launch helpers the kernels share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "kernels/kernel.hpp"

namespace spaden::kern {

std::unique_ptr<SpmvKernel> make_csr_vector();   // cuSPARSE CSR stand-in
std::unique_ptr<SpmvKernel> make_bsr_kernel();   // cuSPARSE BSR stand-in
std::unique_ptr<SpmvKernel> make_lightspmv();
std::unique_ptr<SpmvKernel> make_gunrock();
std::unique_ptr<SpmvKernel> make_dasp();
/// Spaden kernel family: the paper's kernel plus its ablation variants.
enum class SpadenVariant {
  TensorCore,    ///< the paper's kernel (direct registers, paired blocks)
  NoTensorCore,  ///< bitBSR decode + CUDA-core MAC (Fig. 8)
  Conventional,  ///< fragments filled through the WMMA staging path
  Unpaired,      ///< one block-row per warp, top-left portion only
};
std::unique_ptr<SpmvKernel> make_spaden(SpadenVariant variant);
std::unique_ptr<SpmvKernel> make_spaden_wide();  // bitBSR16, 16x16 blocks
std::unique_ptr<SpmvKernel> make_csr_warp16();
std::unique_ptr<SpmvKernel> make_csr_adaptive();

/// Sub-warp vector width heuristic shared by the CSR vector kernels: the
/// smallest power of two >= avg row nnz, clamped to [2, 32] (cuSPARSE's
/// classic rule).
unsigned choose_vector_width(double avg_row_nnz);

/// Column strides of a multi-RHS stack pair, in elements.
struct ColumnStrides {
  std::size_t x = 0;
  std::size_t y = 0;
};

/// Checks a column-major multi-RHS stack — k >= 1 right-hand sides, xs and
/// ys each split into k equal columns of at least ncols and nrows entries —
/// and returns its column strides (xs_size / k, ys_size / k).
ColumnStrides require_column_stack(std::size_t xs_size, std::size_t ys_size, mat::Index k,
                                   mat::Index ncols, mat::Index nrows);

/// The fused multi-RHS launch of the CSR and BSR kernels: one launch of
/// k * row_warps warps over a column-major stack (RHS c occupies
/// [c*stride, c*stride + ncols) of xs, its output the same slice of ys at
/// the y stride; see SpmvKernel::run_multi). Global warp g runs
/// `body(ctx, w, x, y)`, the unchanged SpMV warp body, for row-warp
/// w = g % row_warps on column g / row_warps. At k = 1 it is the plain
/// SpMV launch. Each warp does exactly its column's SpMV arithmetic, so
/// every y column is bit-identical to run() on that column; the batch pays
/// one t_launch and its k-fold grid fills more of the device.
template <typename Body>
sim::LaunchResult launch_column_grid(sim::Device& device, std::string_view name,
                                     std::uint64_t row_warps, sim::DSpan<const float> xs,
                                     sim::DSpan<float> ys, mat::Index k, mat::Index ncols,
                                     mat::Index nrows, Body&& body) {
  const ColumnStrides stride = require_column_stack(xs.size, ys.size, k, ncols, nrows);
  return device.launch(name, static_cast<std::uint64_t>(k) * row_warps,
                       [&](sim::WarpCtx& ctx, std::uint64_t g) {
                         const std::uint64_t c = g / row_warps;
                         body(ctx, g % row_warps, xs.subspan(c * stride.x, ncols),
                              ys.subspan(c * stride.y, nrows));
                       });
}

}  // namespace spaden::kern
