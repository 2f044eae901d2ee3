#include "matrix/csr.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace spaden::mat {

void Csr::validate() const {
  SPADEN_REQUIRE(row_ptr.size() == static_cast<std::size_t>(nrows) + 1,
                 "row_ptr size %zu != nrows+1 (%u)", row_ptr.size(), nrows + 1);
  SPADEN_REQUIRE(row_ptr.front() == 0, "row_ptr[0] must be 0");
  SPADEN_REQUIRE(row_ptr.back() == nnz(), "row_ptr back %u != nnz %zu", row_ptr.back(), nnz());
  SPADEN_REQUIRE(col_idx.size() == val.size(), "col_idx size %zu != val size %zu",
                 col_idx.size(), val.size());
  for (Index r = 0; r < nrows; ++r) {
    SPADEN_REQUIRE(row_ptr[r] <= row_ptr[r + 1], "row_ptr not monotone at row %u", r);
    for (Index i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      SPADEN_REQUIRE(col_idx[i] < ncols, "row %u: col %u >= ncols %u", r, col_idx[i], ncols);
      if (i > row_ptr[r]) {
        SPADEN_REQUIRE(col_idx[i - 1] < col_idx[i], "row %u: columns not strictly ascending",
                       r);
      }
    }
  }
}

Csr Csr::from_coo(const Coo& coo) {
  require_index_count(coo.nnz(), "nonzeros", "Csr::from_coo");
  coo.validate();
  Coo sorted = coo;
  sorted.combine_duplicates();

  Csr out;
  out.nrows = coo.nrows;
  out.ncols = coo.ncols;
  out.row_ptr.assign(static_cast<std::size_t>(coo.nrows) + 1, 0);
  out.col_idx = std::move(sorted.col);
  out.val = std::move(sorted.val);
  for (const Index r : sorted.row) {
    ++out.row_ptr[r + 1];
  }
  for (Index r = 0; r < out.nrows; ++r) {
    out.row_ptr[r + 1] += out.row_ptr[r];
  }
  return out;
}

Coo Csr::to_coo() const {
  Coo out;
  out.nrows = nrows;
  out.ncols = ncols;
  out.row.reserve(nnz());
  out.col = col_idx;
  out.val = val;
  for (Index r = 0; r < nrows; ++r) {
    for (Index i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      out.row.push_back(r);
    }
  }
  return out;
}

Csr Csr::transpose() const {
  Csr out;
  out.nrows = ncols;
  out.ncols = nrows;
  out.row_ptr.assign(static_cast<std::size_t>(ncols) + 1, 0);
  out.col_idx.resize(nnz());
  out.val.resize(nnz());
  for (const Index c : col_idx) {
    ++out.row_ptr[c + 1];
  }
  for (Index c = 0; c < out.nrows; ++c) {
    out.row_ptr[c + 1] += out.row_ptr[c];
  }
  std::vector<Index> cursor(out.row_ptr.begin(), out.row_ptr.end() - 1);
  for (Index r = 0; r < nrows; ++r) {
    for (Index i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const Index c = col_idx[i];
      const Index pos = cursor[c]++;
      out.col_idx[pos] = r;
      out.val[pos] = val[i];
    }
  }
  return out;
}

std::vector<double> spmv_reference(const Csr& a, const std::vector<float>& x) {
  SPADEN_REQUIRE(x.size() == a.ncols, "x size %zu != ncols %u", x.size(), a.ncols);
  std::vector<double> y(a.nrows, 0.0);
  for (Index r = 0; r < a.nrows; ++r) {
    double acc = 0.0;
    for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      acc += static_cast<double>(a.val[i]) * static_cast<double>(x[a.col_idx[i]]);
    }
    y[r] = acc;
  }
  return y;
}

std::vector<float> spmv_host(const Csr& a, const std::vector<float>& x) {
  SPADEN_REQUIRE(x.size() == a.ncols, "x size %zu != ncols %u", x.size(), a.ncols);
  std::vector<float> y(a.nrows, 0.0f);
  for (Index r = 0; r < a.nrows; ++r) {
    float acc = 0.0f;
    for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      acc += a.val[i] * x[a.col_idx[i]];
    }
    y[r] = acc;
  }
  return y;
}

}  // namespace spaden::mat
