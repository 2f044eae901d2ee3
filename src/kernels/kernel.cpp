#include "kernels/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "kernels/internal.hpp"

namespace spaden::kern {

std::string_view method_name(Method m) {
  switch (m) {
    case Method::CusparseCsr:
      return "cuSPARSE CSR";
    case Method::CusparseBsr:
      return "cuSPARSE BSR";
    case Method::LightSpmv:
      return "LightSpMV";
    case Method::Gunrock:
      return "Gunrock";
    case Method::Dasp:
      return "DASP";
    case Method::Spaden:
      return "Spaden";
    case Method::SpadenNoTc:
      return "Spaden w/o TC";
    case Method::CsrWarp16:
      return "CSR Warp16";
    case Method::CsrAdaptive:
      return "CSR-Adaptive";
    case Method::SpadenConventional:
      return "Spaden (WMMA path)";
    case Method::SpadenUnpaired:
      return "Spaden (unpaired)";
    case Method::SpadenWide:
      return "Spaden-16 (bitBSR16)";
  }
  return "?";
}

const std::vector<Method>& figure6_methods() {
  static const std::vector<Method> kMethods = {
      Method::CusparseCsr, Method::CusparseBsr, Method::LightSpmv,
      Method::Gunrock,     Method::Dasp,        Method::Spaden,
  };
  return kMethods;
}

const std::vector<Method>& all_methods() {
  static const std::vector<Method> kMethods = {
      Method::CusparseCsr,        Method::CusparseBsr,    Method::LightSpmv,
      Method::Gunrock,            Method::Dasp,           Method::Spaden,
      Method::SpadenNoTc,         Method::CsrWarp16,      Method::CsrAdaptive,
      Method::SpadenConventional, Method::SpadenUnpaired, Method::SpadenWide,
  };
  return kMethods;
}

std::size_t Footprint::total_bytes() const {
  std::size_t total = 0;
  for (const auto& item : items) {
    total += item.bytes;
  }
  return total;
}

void SpmvKernel::prepare(sim::Device& device, const mat::Csr& a,
                         std::optional<std::span<const mat::Index>> segment_counts) {
  a.validate();
  nrows_ = a.nrows;
  ncols_ = a.ncols;
  nnz_ = a.nnz();
  segment_counts_.reset();
  if (segment_counts) {
    segment_counts_.emplace(segment_counts->begin(), segment_counts->end());
  }
  Timer timer;
  do_prepare(device, a);
  prep_seconds_ = timer.seconds();
}

ColumnStrides require_column_stack(std::size_t xs_size, std::size_t ys_size, mat::Index k,
                                   mat::Index ncols, mat::Index nrows) {
  SPADEN_REQUIRE(k >= 1, "run_multi needs at least one right-hand side");
  const ColumnStrides stride{xs_size / k, ys_size / k};
  SPADEN_REQUIRE(xs_size % k == 0 && ys_size % k == 0 && stride.x >= ncols &&
                     stride.y >= nrows,
                 "xs/ys sizes %zu/%zu are not k=%u columns of at least %u/%u entries",
                 xs_size, ys_size, k, ncols, nrows);
  return stride;
}

sim::DSpan<const float> XBatch::column_stack() const {
  SPADEN_REQUIRE(!fragments,
                 "a binary16 fragment batch has no fp32 column stack; run it on the kernel "
                 "that packed it");
  return f32.cspan();
}

XBatch SpmvKernel::upload_batch(sim::Device& device,
                                const std::vector<const std::vector<float>*>& xs) {
  XBatch batch;
  batch.k = static_cast<mat::Index>(xs.size());
  batch.f32 = device.memory().upload(
      pack_column_stack(batch.k, ncols_, [&](mat::Index c, mat::Index i) { return (*xs[c])[i]; }),
      "batch.x");
  return batch;
}

sim::LaunchResult SpmvKernel::run_multi(sim::Device& device, const XBatch& batch,
                                        sim::DSpan<float> ys) {
  const mat::Index k = batch.k;
  const sim::DSpan<const float> xs = batch.column_stack();
  const ColumnStrides stride = require_column_stack(xs.size, ys.size, k, ncols_, nrows_);
  sim::LaunchResult agg;
  for (mat::Index c = 0; c < k; ++c) {
    // Each column is its own logical multiply; a fresh batch id keeps its
    // launches grouped in the telemetry launch log.
    device.set_batch_id(device.alloc_batch_id());
    const sim::LaunchResult r =
        run(device, xs.subspan(c * stride.x, ncols_), ys.subspan(c * stride.y, nrows_));
    if (c == 0) {
      agg.kernel_name = r.kernel_name;
    }
    agg.stats += r.stats;
    agg.sanitizer.merge(r.sanitizer);
    // Sequential launches: the batch pays every per-launch breakdown in
    // full, so the aggregate is the component-wise sum (unlike a merged
    // estimate_time call, which would count t_launch once).
    agg.time += r.time;
  }
  return agg;
}

san::FormatReport SpmvKernel::check_format() const {
  san::FormatReport report;
  report.format = "(no uploaded sparse format)";
  return report;
}

bool uses_half_values(Method m) {
  return m == Method::Spaden || m == Method::SpadenNoTc || m == Method::SpadenConventional ||
         m == Method::SpadenUnpaired || m == Method::SpadenWide || m == Method::Dasp;
}

double spmv_tolerance(const mat::Csr& a, bool half_precision_values) {
  mat::Index max_row = 1;
  for (mat::Index r = 0; r < a.nrows; ++r) {
    max_row = std::max(max_row, a.row_nnz(r));
  }
  float max_val = 0.0f;
  for (const float v : a.val) {
    max_val = std::max(max_val, std::abs(v));
  }
  // Each product contributes at most eps * |a| * |x| (|x| <= 1 from the
  // verification vector); errors can accumulate linearly across the row.
  const double eps = half_precision_values ? 0x1.0p-10 : 0x1.0p-23;
  const double per_term = eps * static_cast<double>(max_val);
  return std::max(1e-6, 4.0 * per_term * static_cast<double>(max_row));
}

VerifyResult verify_kernel(SpmvKernel& kernel, sim::Device& device, const mat::Csr& a,
                           std::uint64_t x_seed) {
  Rng rng(x_seed);
  std::vector<float> x(a.ncols);
  for (auto& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  const std::vector<double> y_ref = spmv_reference(a, x);

  auto x_buf = device.memory().upload(x, "verify.x");
  auto y_buf = device.memory().alloc<float>(a.nrows, "verify.y");
  (void)kernel.run(device, x_buf.cspan(), y_buf.span());

  VerifyResult result;
  result.tolerance = spmv_tolerance(a, uses_half_values(kernel.method()));
  for (mat::Index r = 0; r < a.nrows; ++r) {
    const double err = std::abs(static_cast<double>(y_buf.host()[r]) - y_ref[r]);
    result.max_abs_err = std::max(result.max_abs_err, err);
  }
  SPADEN_REQUIRE(result.ok(), "%.*s produced wrong results: max err %g > tolerance %g",
                 static_cast<int>(kernel.name().size()), kernel.name().data(),
                 result.max_abs_err, result.tolerance);
  return result;
}

}  // namespace spaden::kern
