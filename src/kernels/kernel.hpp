// SpMV kernel interface and method registry.
//
// Every method the paper evaluates is one implementation of SpmvKernel:
//
//   CusparseCsr — modern csr-vector kernel (cuSPARSE CSR stand-in)
//   CusparseBsr — dense 8x8 block kernel (cuSPARSE BSR stand-in)
//   LightSpmv   — CSR vector kernel with dynamic row distribution [24]
//   Gunrock     — edge-centric COO push with atomics [40]
//   Dasp        — tensor-core m8n8k4 row-group kernel, half values [25]
//   Spaden      — bitBSR + pairing tensor-core kernel (the paper's method)
//   SpadenNoTc  — Spaden's bitBSR decode on CUDA cores (ablation, Fig. 8)
//   CsrWarp16   — CSR with 16 rows per warp, uncoalesced (ablation, Fig. 8)
//   CsrAdaptive — row-block load-balanced CSR (CSR-Adaptive, SC'14)
//   SpadenConventional — Spaden filling fragments through the documented
//                 WMMA staging path instead of direct registers (ablation
//                 of §3/§4.3.3's direct-access advantage)
//   SpadenUnpaired — one block-row per warp, one block per MMA (top-left
//                 portion only), quantifying Spaden's block-row pairing
//   SpadenWide  — bitBSR16: one 16x16 block per fragment (the block-size
//                 design point for wider dense matrix units)
//
// Protocol: construct, prepare(device, csr) once (converts the matrix to the
// method's format, uploads it, and records host preprocessing time and
// device footprint), then run(device, x, y) any number of times. run()
// returns the measured counters and modeled time for one y = A*x.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/half.hpp"
#include "gpusim/device.hpp"
#include "matrix/csr.hpp"
#include "matrix/verify.hpp"

namespace spaden::kern {

// Values are never reused: a deleted method leaves its value unassigned, so
// the names of value-parameterized tests (gtest prints each parameter's
// bytes) stay the same across a deletion. 0 names no method.
enum class Method {
  CusparseCsr = 1,
  CusparseBsr,
  LightSpmv,
  Gunrock,
  Dasp,
  Spaden,
  SpadenNoTc,
  CsrWarp16,
  CsrAdaptive,
  SpadenConventional,
  SpadenUnpaired,
  SpadenWide,
};

[[nodiscard]] std::string_view method_name(Method m);

/// The methods compared in the paper's Figure 6 (performance), in plot
/// order.
[[nodiscard]] const std::vector<Method>& figure6_methods();

/// Every implemented method.
[[nodiscard]] const std::vector<Method>& all_methods();

/// Device memory consumed by a prepared kernel, itemized by array, used by
/// the Figure 10b memory-footprint comparison.
struct Footprint {
  struct Item {
    std::string name;
    std::size_t bytes;
  };
  std::vector<Item> items;

  void add(std::string name, std::size_t bytes) { items.push_back({std::move(name), bytes}); }
  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] double bytes_per_nnz(std::size_t nnz) const {
    return nnz == 0 ? 0.0 : static_cast<double>(total_bytes()) / static_cast<double>(nnz);
  }
};

/// Two binary16 values in one 32-bit word: what one lane holds in a
/// tensor-core fragment register pair.
struct HalfPair {
  half lo;
  half hi;
};

/// k right-hand sides uploaded for one batched launch
/// (SpmvKernel::upload_batch), in the layout of the kernel that packed
/// them: an fp32 column stack, or Spaden's binary16 fragment stack.
struct XBatch {
  mat::Index k = 0;
  bool fragments = false;     ///< h16 holds the batch (f32 is then empty)
  sim::Buffer<float> f32;     ///< column stack (pack_column_stack)
  sim::Buffer<HalfPair> h16;  ///< fragment stack (pack_fragment_stack)

  /// The fp32 column stack; a fragment batch has none, and only the kernel
  /// that packed it can read it.
  [[nodiscard]] sim::DSpan<const float> column_stack() const;
};

class SpmvKernel {
 public:
  virtual ~SpmvKernel() = default;

  [[nodiscard]] virtual Method method() const = 0;
  [[nodiscard]] std::string_view name() const { return method_name(method()); }

  /// Convert the CSR matrix into this method's format and upload it.
  /// Measures host-side preprocessing time (paper Fig. 10a).
  /// `segment_counts` fixes how many segments a kernel with a segment plan
  /// (kernels/segments.hpp) cuts each of its units into, one count per
  /// unit; a row-sharded caller passes its shard's slice of the whole
  /// matrix's. Unset, the kernel derives them from `a`.
  void prepare(sim::Device& device, const mat::Csr& a,
               std::optional<std::span<const mat::Index>> segment_counts = std::nullopt);

  /// The per-unit segment counts this kernel's plan derives from `a` (what
  /// prepare uses when given none), empty for a kernel without segments. A
  /// row-sharded caller asks once on the whole matrix and passes each shard
  /// its slice.
  [[nodiscard]] virtual std::vector<mat::Index> derive_segment_counts(
      const mat::Csr& /*a*/) const {
    return {};
  }

  /// Rows each unit of derive_segment_counts covers: 16 for a block-row
  /// pair, 8 for a block-row, 0 for a kernel without segments.
  [[nodiscard]] virtual mat::Index rows_per_segment_unit() const { return 0; }

  /// One y = A*x. `x` must have ncols elements, `y` nrows. Overwrites y.
  [[nodiscard]] virtual sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                                              sim::DSpan<float> y) = 0;

  /// Packs k = xs.size() right-hand sides (ncols entries each) on the host
  /// and uploads them in the layout this kernel's run_multi reads. The base
  /// packs the fp32 column stack of pack_column_stack below; Spaden's
  /// tensor-core kernel packs a binary16 fragment stack instead
  /// (kern::pack_fragment_stack) unless an entry is outside binary16 range.
  [[nodiscard]] virtual XBatch upload_batch(sim::Device& device,
                                            const std::vector<const std::vector<float>*>& xs);

  /// k multiplies against one prepared matrix (the spaden-serve batch path):
  /// `xs` holds k = xs.k right-hand sides, normally from upload_batch, and
  /// `ys` the k outputs as a column-major stack whose column stride is
  /// ys.size / k (at least nrows); output c is written to
  /// [c*stride, c*stride + nrows) of ys, pads untouched. An fp32 column
  /// stack's stride is likewise f32.size / k (at least ncols).
  /// Contract: per-RHS results are bit-identical to k sequential run()
  /// calls. Every method the serve registry can pick
  /// serves a batch in one launch tagged with one batch id: Spaden runs
  /// its strided tensor-core SpMM, cuSPARSE CSR and BSR run their SpMV
  /// warp body over a k-column grid (internal.hpp: launch_column_grid).
  /// The base implementation, kept by the other (figure-only) baselines,
  /// runs the kernel once per column: trivially bit-identical, each column
  /// its own batch id, modeled time the sum of the per-column launches,
  /// each paying its own t_launch.
  [[nodiscard]] virtual sim::LaunchResult run_multi(sim::Device& device, const XBatch& xs,
                                                   sim::DSpan<float> ys);

  [[nodiscard]] virtual Footprint footprint() const = 0;

  /// spaden-verify: structural-invariant sweep over the *uploaded*
  /// device-resident format (see matrix/verify.hpp for the catalog). Runs
  /// after prepare(); the gate every future in-place mutation of a prepared
  /// matrix must re-run. The base implementation reports an empty, clean
  /// sweep for kernels without an uploaded sparse format.
  [[nodiscard]] virtual san::FormatReport check_format() const;

  [[nodiscard]] double prep_seconds() const { return prep_seconds_; }
  [[nodiscard]] mat::Index nrows() const { return nrows_; }
  [[nodiscard]] mat::Index ncols() const { return ncols_; }
  [[nodiscard]] std::size_t nnz() const { return nnz_; }

 protected:
  virtual void do_prepare(sim::Device& device, const mat::Csr& a) = 0;

  mat::Index nrows_ = 0;
  mat::Index ncols_ = 0;
  std::size_t nnz_ = 0;
  std::optional<std::vector<mat::Index>> segment_counts_;  ///< prepare's argument

 private:
  double prep_seconds_ = 0;
};

/// Column stride of a multi-RHS stack of length-n columns: n rounded up to
/// 8 floats (one 32-byte sector), so every column starts on a sector.
[[nodiscard]] constexpr std::size_t column_stride(std::size_t n) { return (n + 7) / 8 * 8; }

/// Builds the fp32 column-major stack of k length-n columns (the base
/// upload_batch layout): `at(c, i)` gives entry i of column c, which lands at
/// c * column_stride(n) + i; the pad entries [n, column_stride(n)) of each
/// column are zero.
template <typename At>
[[nodiscard]] std::vector<float> pack_column_stack(mat::Index k, mat::Index n, At&& at) {
  const std::size_t stride = column_stride(n);
  std::vector<float> stack(k * stride, 0.0f);
  for (mat::Index c = 0; c < k; ++c) {
    float* column = stack.data() + c * stride;
    for (mat::Index i = 0; i < n; ++i) {
      column[i] = at(c, i);
    }
  }
  return stack;
}

/// Column c of a stack of length-n columns laid out by column_stride (an
/// x stack from pack_column_stack, or a y stack of k * column_stride(n)
/// entries): its n entries, pads excluded.
[[nodiscard]] inline std::span<const float> stack_column(const std::vector<float>& stack,
                                                         mat::Index n, mat::Index c) {
  return std::span<const float>(stack).subspan(c * column_stride(n), n);
}

/// Factory for every method.
[[nodiscard]] std::unique_ptr<SpmvKernel> make_kernel(Method m);

/// Convenience: prepare + run + verify against the fp64 host reference.
/// Returns the max absolute error scaled by a per-row tolerance; throws if
/// the kernel produced out-of-tolerance results (used by tests and by every
/// bench before timing, so no modeled number is ever reported for an
/// incorrect kernel).
struct VerifyResult {
  double max_abs_err = 0;
  double tolerance = 0;
  [[nodiscard]] bool ok() const { return max_abs_err <= tolerance; }
};

VerifyResult verify_kernel(SpmvKernel& kernel, sim::Device& device, const mat::Csr& a,
                           std::uint64_t x_seed = 42);

/// Whether the method stores matrix values in binary16 (the
/// half_precision_values argument of spmv_tolerance).
[[nodiscard]] bool uses_half_values(Method m);

/// Mixed-precision error tolerance for a matrix: half-precision methods
/// accumulate in fp32 from binary16 inputs, so the bound scales with the
/// maximum row nnz and the value magnitudes.
double spmv_tolerance(const mat::Csr& a, bool half_precision_values);

}  // namespace spaden::kern
