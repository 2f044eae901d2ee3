// Matrix Market reader/writer (the SuiteSparse interchange format).
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <sstream>
#include <string>

#include "matrix/generate.hpp"
#include "matrix/io.hpp"

namespace spaden::mat {
namespace {

TEST(MatrixMarket, ReadsGeneralRealCoordinate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 2\n"
      "1 1 1.5\n"
      "3 4 -2.0\n");
  const Coo m = read_matrix_market(in);
  EXPECT_EQ(m.nrows, 3u);
  EXPECT_EQ(m.ncols, 4u);
  ASSERT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.row[0], 0u);  // 1-based -> 0-based
  EXPECT_EQ(m.col[1], 3u);
  EXPECT_EQ(m.val[1], -2.0f);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 1.0\n");
  const Coo m = read_matrix_market(in);
  // Off-diagonal mirrored, diagonal not duplicated.
  EXPECT_EQ(m.nnz(), 3u);
  const Csr a = Csr::from_coo(m);
  const auto y = spmv_reference(a, {1, 1, 1});
  EXPECT_EQ(y[0], 5.0);
  EXPECT_EQ(y[1], 5.0);
}

TEST(MatrixMarket, SkewSymmetricNegatesMirror) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const Coo m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.val[0] + m.val[1], 0.0f);
}

TEST(MatrixMarket, PatternGetsUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const Coo m = read_matrix_market(in);
  EXPECT_EQ(m.val, (std::vector<float>{1.0f, 1.0f}));
}

TEST(MatrixMarket, RejectsMalformedInput) {
  {
    std::istringstream in("not a matrix market file\n");
    EXPECT_THROW((void)read_matrix_market(in), spaden::Error);
  }
  {
    std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
    EXPECT_THROW((void)read_matrix_market(in), spaden::Error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
    EXPECT_THROW((void)read_matrix_market(in), spaden::Error);  // index out of range
  }
  {
    std::istringstream in("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
    EXPECT_THROW((void)read_matrix_market(in), spaden::Error);  // truncated
  }
  {
    std::istringstream in("%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
    EXPECT_THROW((void)read_matrix_market(in), spaden::Error);  // unsupported field
  }
}

struct HostileSizeLine {
  const char* name;
  const char* text;
  const char* error;  ///< substring the spaden::Error message must hold
};

void PrintTo(const HostileSizeLine& line, std::ostream* os) { *os << line.name; }

class HostileSizeLineTest : public ::testing::TestWithParam<HostileSizeLine> {};

TEST_P(HostileSizeLineTest, FailsByNameBeforeAllocating) {
  std::istringstream in(GetParam().text);
  try {
    (void)read_matrix_market(in);
    FAIL() << "accepted";
  } catch (const spaden::Error& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().error), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    MatrixMarket, HostileSizeLineTest,
    ::testing::Values(
        HostileSizeLine{"RowsPastIndex",
                        "%%MatrixMarket matrix coordinate real general\n4294967296 1 0\n",
                        "row count 4294967296 is above the index limit"},
        HostileSizeLine{"ColsPastIndex",
                        "%%MatrixMarket matrix coordinate real general\n1 4294967296 0\n",
                        "column count 4294967296 is above the index limit"},
        HostileSizeLine{"MoreEntriesThanCells",
                        "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n",
                        "2 entries exceed the 1 cells"},
        HostileSizeLine{"TerabyteEntryCount",
                        "%%MatrixMarket matrix coordinate real general\n1 1 99999999999\n",
                        "99999999999 entries exceed the 1 cells"},
        HostileSizeLine{"EntriesPastIndex",
                        "%%MatrixMarket matrix coordinate real general\n"
                        "100000 100000 4294967296\n",
                        "4294967296 stored entries are above the index limit"},
        HostileSizeLine{"SymmetricEntriesPastIndex",
                        "%%MatrixMarket matrix coordinate real symmetric\n"
                        "100000 100000 2147483648\n",
                        "4294967296 stored entries (doubled for symmetry)"}),
    [](const ::testing::TestParamInfo<HostileSizeLine>& info) { return info.param.name; });

TEST(MatrixMarket, WriteReadRoundTrip) {
  const Coo original = random_uniform(40, 60, 300, 17);
  std::stringstream buf;
  write_matrix_market(buf, original);
  const Coo back = read_matrix_market(buf);
  EXPECT_EQ(Csr::from_coo(back), Csr::from_coo(original));
}

TEST(MatrixMarket, FileRoundTrip) {
  const Coo original = random_uniform(20, 20, 50, 18);
  const std::string path = ::testing::TempDir() + "/spaden_io_test.mtx";
  write_matrix_market_file(path, original);
  const Csr back = read_matrix_market_file(path);
  EXPECT_EQ(back, Csr::from_coo(original));
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/m.mtx"), spaden::Error);
}

}  // namespace
}  // namespace spaden::mat
