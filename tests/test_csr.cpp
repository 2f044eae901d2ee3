// CSR format: conversion, validation, transpose, reference SpMV.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

#include "common/rng.hpp"
#include "matrix/csr.hpp"
#include "matrix/generate.hpp"

namespace spaden::mat {
namespace {

// The paper's Algorithm 1 example structure: a small matrix with known
// products.
Csr small() {
  Coo coo;
  coo.nrows = 3;
  coo.ncols = 3;
  coo.row = {0, 0, 1, 2, 2, 2};
  coo.col = {0, 2, 1, 0, 1, 2};
  coo.val = {1, 2, 3, 4, 5, 6};
  return Csr::from_coo(coo);
}

TEST(Csr, IndexCountLimitIsNamed) {
  // Csr::from_coo, random_uniform and rmat check their nonzero count with
  // this before they size anything from it; a COO past the limit would
  // take 48 GiB to build, so the check is tested on its own.
  EXPECT_NO_THROW(require_index_count(kMaxIndexCount, "nonzeros", "Csr::from_coo"));
  try {
    require_index_count(kMaxIndexCount + 1, "nonzeros", "Csr::from_coo");
    ADD_FAILURE() << "accepted 2^32 nonzeros";
  } catch (const spaden::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "Csr::from_coo: 4294967296 nonzeros are above the index limit 4294967295"),
              std::string::npos)
        << e.what();
  }
}

TEST(Csr, FromCooBuildsRowPointers) {
  const Csr a = small();
  EXPECT_EQ(a.row_ptr, (std::vector<Index>{0, 2, 3, 6}));
  EXPECT_EQ(a.col_idx, (std::vector<Index>{0, 2, 1, 0, 1, 2}));
  EXPECT_EQ(a.row_nnz(0), 2u);
  EXPECT_EQ(a.row_nnz(1), 1u);
  EXPECT_NO_THROW(a.validate());
}

TEST(Csr, FromCooSumsDuplicates) {
  Coo coo;
  coo.nrows = 2;
  coo.ncols = 2;
  coo.row = {0, 0};
  coo.col = {1, 1};
  coo.val = {2.0f, 3.0f};
  const Csr a = Csr::from_coo(coo);
  EXPECT_EQ(a.nnz(), 1u);
  EXPECT_EQ(a.val[0], 5.0f);
}

TEST(Csr, CooRoundTrip) {
  const Csr a = small();
  EXPECT_EQ(Csr::from_coo(a.to_coo()), a);
}

TEST(Csr, SpmvReferenceKnownResult) {
  // y = A*x for the small matrix with x = [1, 2, 3].
  const Csr a = small();
  const std::vector<float> x{1, 2, 3};
  const auto y = spmv_reference(a, x);
  EXPECT_EQ(y[0], 1 * 1 + 2 * 3);   // 7
  EXPECT_EQ(y[1], 3 * 2);           // 6
  EXPECT_EQ(y[2], 4 * 1 + 5 * 2 + 6 * 3);  // 32
}

TEST(Csr, SpmvHostMatchesReference) {
  const Csr a = Csr::from_coo(random_uniform(200, 200, 3000, 5));
  Rng rng(6);
  std::vector<float> x(200);
  for (auto& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  const auto y32 = spmv_host(a, x);
  const auto y64 = spmv_reference(a, x);
  for (Index r = 0; r < a.nrows; ++r) {
    EXPECT_NEAR(y32[r], y64[r], 1e-3);
  }
}

TEST(Csr, SpmvRejectsWrongXSize) {
  const Csr a = small();
  EXPECT_THROW((void)spmv_reference(a, std::vector<float>(2)), spaden::Error);
  EXPECT_THROW((void)spmv_host(a, std::vector<float>(4)), spaden::Error);
}

TEST(Csr, TransposeIsInvolution) {
  const Csr a = Csr::from_coo(random_uniform(50, 70, 400, 9));
  const Csr att = a.transpose().transpose();
  EXPECT_EQ(att, a);
}

TEST(Csr, TransposeMovesEntries) {
  const Csr a = small();
  const Csr at = a.transpose();
  // A[0][2] = 2 must become At[2][0] = 2.
  const auto y = spmv_reference(at, {1, 0, 0});
  EXPECT_EQ(y[2], 2.0);
}

TEST(Csr, ValidateCatchesCorruption) {
  Csr a = small();
  a.row_ptr[1] = 5;  // non-monotone / out of range
  EXPECT_THROW(a.validate(), spaden::Error);

  a = small();
  a.col_idx[0] = 99;
  EXPECT_THROW(a.validate(), spaden::Error);

  a = small();
  std::swap(a.col_idx[0], a.col_idx[1]);  // descending columns in row 0
  EXPECT_THROW(a.validate(), spaden::Error);
}

TEST(Csr, EmptyRowsHandled) {
  Coo coo;
  coo.nrows = 5;
  coo.ncols = 5;
  coo.row = {4};
  coo.col = {4};
  coo.val = {1.0f};
  const Csr a = Csr::from_coo(coo);
  EXPECT_EQ(a.row_nnz(0), 0u);
  EXPECT_EQ(a.row_nnz(4), 1u);
  const auto y = spmv_reference(a, std::vector<float>(5, 1.0f));
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[4], 1.0);
}

TEST(Csr, AvgDegree) {
  EXPECT_DOUBLE_EQ(small().avg_degree(), 2.0);
  EXPECT_DOUBLE_EQ(Csr{}.avg_degree(), 0.0);
}

}  // namespace
}  // namespace spaden::mat
