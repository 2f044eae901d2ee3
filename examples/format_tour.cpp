// Tour of the sparse-format library: converts one matrix through every
// supported format (COO, CSR, BSR, bitBSR), showing storage cost and
// verifying all SpMV paths agree — the paper's §2.1 baselines next to its
// bitBSR contribution.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "matrix/matrix.hpp"

int main() {
  using namespace spaden;

  // A banded matrix: its 8x8 blocks get a realistic mix of fill.
  const mat::Csr a = mat::Csr::from_coo(mat::banded(4096, 12, 0.55, 11));
  std::printf("matrix: %u x %u, %zu nonzeros\n\n", a.nrows, a.ncols, a.nnz());

  std::vector<float> x(a.ncols);
  for (mat::Index i = 0; i < a.ncols; ++i) {
    x[i] = 0.5f - 0.01f * static_cast<float>(i % 100);
  }
  const std::vector<double> reference = mat::spmv_reference(a, x);
  auto max_err = [&](const std::vector<float>& y) {
    double e = 0;
    for (mat::Index i = 0; i < a.nrows; ++i) {
      e = std::max(e, std::abs(static_cast<double>(y[i]) - reference[i]));
    }
    return e;
  };

  Table table({"format", "bytes", "bytes/nnz", "max |err| vs fp64", "notes"});
  const double nnz = static_cast<double>(a.nnz());

  const mat::Coo coo = a.to_coo();
  const std::size_t coo_bytes = coo.nnz() * (4 + 4 + 4);
  {
    std::vector<float> y(a.nrows, 0.0f);
    for (std::size_t i = 0; i < coo.nnz(); ++i) {
      y[coo.row[i]] += coo.val[i] * x[coo.col[i]];
    }
    table.add_row({"COO", fmt_bytes(static_cast<double>(coo_bytes)),
                   fmt_double(static_cast<double>(coo_bytes) / nnz, 2),
                   strfmt("%.1e", max_err(y)), "triplets; edge-parallel kernels"});
  }

  const std::size_t csr_bytes = a.row_ptr.size() * 4 + a.nnz() * 8;
  table.add_row({"CSR", fmt_bytes(static_cast<double>(csr_bytes)),
                 fmt_double(static_cast<double>(csr_bytes) / nnz, 2),
                 strfmt("%.1e", max_err(mat::spmv_host(a, x))), "the baseline (§2.1)"});

  const mat::Bsr bsr = mat::Bsr::from_csr(a, 8);
  const std::size_t bsr_bytes =
      bsr.block_row_ptr.size() * 4 + bsr.block_col.size() * 4 + bsr.val.size() * 4;
  table.add_row({"BSR 8x8", fmt_bytes(static_cast<double>(bsr_bytes)),
                 fmt_double(static_cast<double>(bsr_bytes) / nnz, 2),
                 strfmt("%.1e", max_err(spmv_host(bsr, x))),
                 strfmt("%.0f%% fill — zeros stored!", 100.0 * bsr.fill_ratio())});

  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  table.add_row({"bitBSR (Spaden)", fmt_bytes(static_cast<double>(bb.footprint_bytes())),
                 fmt_double(static_cast<double>(bb.footprint_bytes()) / nnz, 2),
                 strfmt("%.1e", max_err(spmv_host(bb, x))),
                 "64-bit bitmaps + fp16 values (§4.2)"});

  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nbitBSR keeps BSR's rectangular blocks (what tensor cores need) at a\n"
      "fraction of the storage; its error column shows the binary16 rounding\n"
      "the mixed-precision tensor path accepts.\n");
  return 0;
}
