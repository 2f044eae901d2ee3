// spaden-verify: every conversion comes back clean; seeded corruptions are
// reported as named, located violations; the engine gates uploads on it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/spaden.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix.hpp"
#include "matrix/verify.hpp"

namespace spaden::san {
namespace {

mat::Csr test_matrix(mat::Index n = 100, std::size_t nnz = 900, std::uint64_t seed = 7) {
  return mat::Csr::from_coo(mat::random_uniform(n, n, nnz, seed));
}

bool has_violation(const FormatReport& r, const std::string& name) {
  for (const Violation& v : r.violations) {
    if (v.invariant == name) {
      return true;
    }
  }
  return false;
}

std::string locations_of(const FormatReport& r, const std::string& name) {
  std::string out;
  for (const Violation& v : r.violations) {
    if (v.invariant == name) {
      out += v.location + "; ";
    }
  }
  return out;
}

// ----- clean conversions -----------------------------------------------------

TEST(Verify, EveryConversionOfARandomMatrixIsClean) {
  // Deliberately off-multiple-of-16 so every format carries edge blocks
  // whose padding invariants get exercised.
  const mat::Csr a = test_matrix(107, 1400, 3);
  EXPECT_TRUE(check_format(a).ok()) << check_format(a).summary();
  EXPECT_TRUE(check_format(a.to_coo()).ok()) << check_format(a.to_coo()).summary();
  const mat::Bsr bsr = mat::Bsr::from_csr(a);
  EXPECT_TRUE(check_format(bsr).ok()) << check_format(bsr).summary();
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  EXPECT_TRUE(check_format(bb).ok()) << check_format(bb).summary();
  const mat::BitBsr16 bw = mat::BitBsr16::from_csr(a);
  EXPECT_TRUE(check_format(bw).ok()) << check_format(bw).summary();
}

TEST(Verify, CleanSummaryIsOneLine) {
  const FormatReport r = check_format(test_matrix());
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.checks, 0u);
  EXPECT_NE(r.summary().find("CSR: OK"), std::string::npos) << r.summary();
}

// ----- CSR corruptions -------------------------------------------------------

TEST(Verify, CsrUnsortedColumnsAreLocated) {
  mat::Csr a = test_matrix();
  // Swap two columns inside the first row with >= 2 entries.
  mat::Index r = 0;
  while (a.row_ptr[r + 1] - a.row_ptr[r] < 2) {
    ++r;
  }
  std::swap(a.col_idx[a.row_ptr[r]], a.col_idx[a.row_ptr[r] + 1]);
  const FormatReport report = check_format(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, "csr.col-order")) << report.summary();
  EXPECT_NE(locations_of(report, "csr.col-order").find("row " + std::to_string(r)),
            std::string::npos)
      << report.summary();
}

TEST(Verify, CsrDuplicateColumnIsReported) {
  mat::Csr a = test_matrix();
  mat::Index r = 0;
  while (a.row_ptr[r + 1] - a.row_ptr[r] < 2) {
    ++r;
  }
  a.col_idx[a.row_ptr[r] + 1] = a.col_idx[a.row_ptr[r]];
  const FormatReport report = check_format(a);
  EXPECT_TRUE(has_violation(report, "csr.col-dup")) << report.summary();
}

TEST(Verify, CsrColumnOutOfBoundsIsReported) {
  mat::Csr a = test_matrix();
  a.col_idx.back() = a.ncols + 5;
  const FormatReport report = check_format(a);
  EXPECT_TRUE(has_violation(report, "csr.col-bounds")) << report.summary();
}

TEST(Verify, CsrNonMonotoneRowPtrIsReported) {
  mat::Csr a = test_matrix();
  a.row_ptr[10] = a.row_ptr[11] + 3;  // decreases at the next step
  const FormatReport report = check_format(a);
  EXPECT_TRUE(has_violation(report, "csr.row-ptr-monotone")) << report.summary();
}

TEST(Verify, CsrTruncatedColIdxIsReported) {
  mat::Csr a = test_matrix();
  a.col_idx.pop_back();
  const FormatReport report = check_format(a);
  EXPECT_TRUE(has_violation(report, "csr.array-sizes")) << report.summary();
  EXPECT_TRUE(has_violation(report, "csr.row-ptr-end")) << report.summary();
}

// ----- COO corruptions -------------------------------------------------------

TEST(Verify, CooOutOfOrderTripletsAreReported) {
  const mat::Csr a = test_matrix();
  mat::Coo coo = a.to_coo();
  std::swap(coo.row.front(), coo.row.back());
  std::swap(coo.col.front(), coo.col.back());
  const FormatReport report =
      check_coo(coo.nrows, coo.ncols, coo.row, coo.col, coo.val.size(),
                /*require_canonical=*/true);
  EXPECT_TRUE(has_violation(report, "coo.order")) << report.summary();
}

// ----- BSR corruptions -------------------------------------------------------

TEST(Verify, BsrNonzeroPaddingValueIsLocated) {
  // 100 is not a multiple of 8, so block-row 12 pads rows 96..103 with
  // zeros; poke a nonzero into a padding position of its first block.
  mat::Bsr bsr = mat::Bsr::from_csr(test_matrix());
  const mat::Index brows = (bsr.nrows + bsr.block_dim - 1) / bsr.block_dim;
  const mat::Index b = bsr.block_row_ptr[brows - 1];  // a last-block-row block
  ASSERT_LT(b, bsr.block_row_ptr[brows]);
  const std::size_t elems = static_cast<std::size_t>(bsr.block_dim) * bsr.block_dim;
  // Local row block_dim-1 of the last block-row is past nrows for 100x100.
  bsr.val[b * elems + elems - 1] = 3.0f;
  const FormatReport report = check_format(bsr);
  EXPECT_TRUE(has_violation(report, "bsr.padding-zero")) << report.summary();
  EXPECT_NE(locations_of(report, "bsr.padding-zero").find("block-row 12"),
            std::string::npos)
      << report.summary();
}

// ----- bitBSR corruptions ----------------------------------------------------

TEST(Verify, BitBsrFlippedBitmapBitBreaksPopcount) {
  mat::BitBsr bb = mat::BitBsr::from_csr(test_matrix());
  bb.bitmap[0] ^= 1;  // flip bit (0,0) of the first block
  const FormatReport report = check_format(bb);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, "bitbsr.popcount")) << report.summary();
  EXPECT_NE(locations_of(report, "bitbsr.popcount").find("block 0"), std::string::npos)
      << report.summary();
  EXPECT_NE(report.summary().find("misindexed"), std::string::npos) << report.summary();
}

TEST(Verify, BitBsrTruncatedValueArrayIsReported) {
  mat::BitBsr bb = mat::BitBsr::from_csr(test_matrix());
  bb.values.pop_back();
  const FormatReport report = check_format(bb);
  EXPECT_TRUE(has_violation(report, "bitbsr.val-offset-end")) << report.summary();
}

TEST(Verify, BitBsrPaddingBitIsLocated) {
  // 100x100: the last block-row covers rows 96..103, so bits for local
  // rows 4..7 are beyond the matrix in every one of its blocks.
  mat::BitBsr bb = mat::BitBsr::from_csr(test_matrix());
  const mat::Index b = bb.block_row_ptr[bb.brows - 1];
  ASSERT_LT(b, bb.block_row_ptr[bb.brows]);
  bb.bitmap[b] |= std::uint64_t{1} << 63;  // local (7,7): row 103 > 99
  const FormatReport report = check_format(bb);
  EXPECT_TRUE(has_violation(report, "bitbsr.padding-bits")) << report.summary();
  EXPECT_NE(locations_of(report, "bitbsr.padding-bits").find("block-row 12"),
            std::string::npos)
      << report.summary();
}

TEST(Verify, BitBsrZeroedBitmapIsAnEmptyBlock) {
  mat::BitBsr bb = mat::BitBsr::from_csr(test_matrix());
  bb.bitmap[2] = 0;
  const FormatReport report = check_format(bb);
  EXPECT_TRUE(has_violation(report, "bitbsr.empty-block")) << report.summary();
}

TEST(Verify, BitBsrViolationDetailsAreCappedButCountIsExact) {
  mat::BitBsr bb = mat::BitBsr::from_csr(test_matrix(200, 8000, 9));
  for (auto& w : bb.bitmap) {
    w ^= 1;  // every block's popcount goes off by one
  }
  const FormatReport report = check_format(bb);
  EXPECT_GT(report.violation_count, kMaxViolationDetails);
  EXPECT_EQ(report.violations.size(), kMaxViolationDetails);
  EXPECT_NE(report.summary().find("details capped"), std::string::npos) << report.summary();
}

// ----- bitBSR16 corruptions --------------------------------------------------

TEST(Verify, BitBsr16FlippedWordBreaksPopcount) {
  mat::BitBsr16 bw = mat::BitBsr16::from_csr(test_matrix());
  bw.bitmap[0][1] ^= 2;
  const FormatReport report = check_format(bw);
  EXPECT_TRUE(has_violation(report, "bitbsr16.popcount")) << report.summary();
}

// ----- engine integration ----------------------------------------------------

TEST(Verify, EngineGateAcceptsEveryShippedKernelsUpload) {
  const mat::Csr a = test_matrix(96, 800, 5);
  for (const kern::Method m : kern::all_methods()) {
    EngineOptions options;
    options.method = m;
    options.verify_format = true;  // throws on any structural violation
    const SpmvEngine engine(a, options);
    const FormatReport report = engine.check_format();
    EXPECT_TRUE(report.ok()) << std::string(kern::method_name(m)) << ":\n"
                             << report.summary();
    EXPECT_FALSE(report.format.empty());
  }
}

TEST(Verify, DefaultComesFromEnvironment) {
  const char* saved = std::getenv("SPADEN_VERIFY_FORMAT");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("SPADEN_VERIFY_FORMAT", "1", 1);
  EXPECT_TRUE(default_verify_format());
  ::setenv("SPADEN_VERIFY_FORMAT", "0", 1);
  EXPECT_FALSE(default_verify_format());
  ::unsetenv("SPADEN_VERIFY_FORMAT");
  EXPECT_FALSE(default_verify_format());
  if (saved != nullptr) {
    ::setenv("SPADEN_VERIFY_FORMAT", saved_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace spaden::san
