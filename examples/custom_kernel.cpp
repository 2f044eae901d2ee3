// Tutorial: writing your own device kernel against the simulator API
// (companion to docs/writing_kernels.md).
//
// We build the textbook CSR SpMV kernel from scratch — one lane per row,
// the simplest kernel there is — run it on the simulated L40, verify it
// against the fp64 reference, and read the counters to see where the
// modeled time went.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "matrix/matrix.hpp"

namespace {

using namespace spaden;

/// y = A*x with A in CSR: one lane per row, all lanes stepping through
/// their rows in lockstep. Neighbouring lanes read unrelated parts of
/// col_idx/val, so each step's gathers are uncoalesced — compare the
/// wavefront counter with cuSPARSE CSR's (a vector of lanes per row) from
/// `spaden spmv <matrix> --method csr --profile csr.json`.
sim::LaunchResult csr_row_per_lane(sim::Device& device, const mat::Csr& a,
                                   sim::DSpan<const float> x, sim::DSpan<float> y) {
  auto& mem = device.memory();
  auto row_ptr_dev = mem.upload(a.row_ptr, "csr.row_ptr");
  auto col_dev = mem.upload(a.col_idx, "csr.col_idx");
  auto val_dev = mem.upload(a.val, "csr.val");
  const auto row_ptr = row_ptr_dev.cspan();
  const auto cols = col_dev.cspan();
  const auto vals = val_dev.cspan();
  const mat::Index nrows = a.nrows;

  const std::uint64_t warps = (nrows + sim::kWarpSize - 1) / sim::kWarpSize;
  return device.launch("csr_row_per_lane", warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
    // Step 1: each lane owns one row.
    sim::Lanes<std::uint32_t> rows{};
    sim::Lanes<std::uint32_t> next_rows{};
    std::uint32_t row_mask = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const std::uint64_t r = w * sim::kWarpSize + lane;
      if (r < nrows) {
        rows[lane] = static_cast<std::uint32_t>(r);
        next_rows[lane] = static_cast<std::uint32_t>(r + 1);
        row_mask |= 1u << lane;
      }
    }
    if (row_mask == 0) {
      return;
    }

    // Step 2: the row bounds, two coalesced gathers over row_ptr.
    const auto begin = ctx.gather(row_ptr, rows, row_mask);
    const auto end = ctx.gather(row_ptr, next_rows, row_mask);

    // Step 3: lockstep element loop — at step k lane i reads element
    // begin[i] + k of its own row; lanes whose row is done drop out.
    sim::Lanes<float> acc{};
    for (std::uint32_t k = 0;; ++k) {
      std::uint32_t live = 0;
      sim::Lanes<std::uint32_t> idx{};
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if (((row_mask >> lane) & 1u) && begin[lane] + k < end[lane]) {
          idx[lane] = begin[lane] + k;
          live |= 1u << lane;
        }
      }
      ctx.charge(sim::OpClass::Branch, sim::active_lanes(row_mask));
      if (live == 0) {
        break;
      }
      const auto c = ctx.gather(cols, idx, live);
      const auto v = ctx.gather(vals, idx, live);
      const auto xv = ctx.gather(x, c, live);
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if ((live >> lane) & 1u) {
          acc[lane] += v[lane] * xv[lane];
        }
      }
      // Step 4: charge the arithmetic the loop above performed.
      ctx.charge(sim::OpClass::Fma, sim::active_lanes(live));
      ctx.charge(sim::OpClass::IntAlu, sim::active_lanes(row_mask));
    }

    // Step 5: one coalesced store of the 32 row results.
    ctx.scatter(y, rows, acc, row_mask);
  });
}

}  // namespace

int main() {
  // A banded matrix gives every lane of a warp a similar row length.
  const mat::Csr csr = mat::Csr::from_coo(mat::banded(20000, 16, 0.8, 3));
  std::printf("matrix: %u rows, %zu nnz, %.1f nnz/row\n", csr.nrows, csr.nnz(),
              csr.avg_degree());

  sim::Device device(sim::l40());
  std::vector<float> x(csr.ncols);
  for (mat::Index i = 0; i < csr.ncols; ++i) {
    x[i] = 0.3f - 0.002f * static_cast<float>(i % 300);
  }
  auto x_dev = device.memory().upload(x, "x");
  auto y_dev = device.memory().alloc<float>(csr.nrows, "y");

  const sim::LaunchResult warm = csr_row_per_lane(device, csr, x_dev.cspan(), y_dev.span());
  const sim::LaunchResult run = csr_row_per_lane(device, csr, x_dev.cspan(), y_dev.span());
  (void)warm;

  // Verify before believing any number.
  const auto ref = mat::spmv_reference(csr, x);
  double max_err = 0;
  for (mat::Index r = 0; r < csr.nrows; ++r) {
    max_err = std::max(max_err, std::abs(static_cast<double>(y_dev.host()[r]) - ref[r]));
  }
  std::printf("max |err| vs fp64 reference: %.2e\n\n", max_err);

  std::printf("counters: %s\n", run.stats.summary().c_str());
  std::printf("modeled:  %s\n", run.time.summary().c_str());
  std::printf("=> %.1f modeled GFLOP/s\n\n", run.gflops(csr.nnz()));
  std::printf(
      "Things to try (see docs/writing_kernels.md):\n"
      " * compare wavefronts and the lsu term with cuSPARSE CSR:\n"
      "   spaden spmv <matrix> --method csr --profile csr.json;\n"
      " * start the element loop at k = 1 and watch verification fail;\n"
      " * switch the device to sim::v100() and compare the breakdown.\n");
  return max_err < 1e-3 ? 0 : 1;
}
