// Cross-format fuzzing: random matrices are pushed through chains of
// conversions and every representation must agree — the whole format
// library as one property.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "matrix/matrix.hpp"

namespace spaden::mat {
namespace {

class FormatChainTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Index, Index, std::size_t>> {
};

TEST_P(FormatChainTest, AllRepresentationsAgreeOnSpmv) {
  const auto [seed, nrows, ncols, nnz] = GetParam();
  const Csr a = Csr::from_coo(random_uniform(nrows, ncols, nnz, seed));
  Rng rng(seed + 1);
  std::vector<float> x(a.ncols);
  for (auto& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  const auto ref = spmv_reference(a, x);

  auto check = [&](const std::vector<float>& y, const char* format, double tol) {
    ASSERT_EQ(y.size(), ref.size());
    for (Index r = 0; r < a.nrows; ++r) {
      ASSERT_NEAR(y[r], ref[r], tol) << format << " row " << r;
    }
  };
  check(spmv_host(a, x), "csr", 1e-3);
  check(spmv_host(Bsr::from_csr(a, 8), x), "bsr", 1e-3);
  check(spmv_host(BitBsr::from_csr(a), x), "bitbsr", 0.05);
}

TEST_P(FormatChainTest, LongConversionChainPreservesStructure) {
  const auto [seed, nrows, ncols, nnz] = GetParam();
  const Csr a = Csr::from_coo(random_uniform(nrows, ncols, nnz, seed + 100));
  // CSR -> BSR -> CSR -> bitBSR -> CSR: structure must be bit-identical;
  // values pass once through binary16.
  const Csr via_bsr = Bsr::from_csr(a, 8).to_csr();
  EXPECT_EQ(via_bsr, a);
  const Csr chained = BitBsr::from_csr(via_bsr).to_csr();
  EXPECT_EQ(chained.row_ptr, a.row_ptr);
  EXPECT_EQ(chained.col_idx, a.col_idx);
  for (std::size_t i = 0; i < a.nnz(); ++i) {
    EXPECT_EQ(chained.val[i], half(a.val[i]).to_float());
  }
  // And binary16 rounding is idempotent: a second pass changes nothing.
  const Csr twice = BitBsr::from_csr(chained).to_csr();
  EXPECT_EQ(twice, chained);
}

TEST_P(FormatChainTest, MatrixMarketSurvivesTheChain) {
  const auto [seed, nrows, ncols, nnz] = GetParam();
  const Csr a = Csr::from_coo(random_uniform(nrows, ncols, nnz, seed + 200));
  std::stringstream buf;
  write_matrix_market(buf, a.to_coo());
  EXPECT_EQ(Csr::from_coo(read_matrix_market(buf)), a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FormatChainTest,
    ::testing::Values(std::tuple<std::uint64_t, Index, Index, std::size_t>{1, 64, 64, 500},
                      std::tuple<std::uint64_t, Index, Index, std::size_t>{2, 100, 37, 800},
                      std::tuple<std::uint64_t, Index, Index, std::size_t>{3, 33, 190, 900},
                      std::tuple<std::uint64_t, Index, Index, std::size_t>{4, 257, 255, 4000},
                      std::tuple<std::uint64_t, Index, Index, std::size_t>{5, 16, 16, 256},
                      std::tuple<std::uint64_t, Index, Index, std::size_t>{6, 1000, 1000,
                                                                           1000}));

}  // namespace
}  // namespace spaden::mat
