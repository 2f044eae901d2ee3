// Matrix generators, including the profile-driven synthesizer that stands
// in for the SuiteSparse downloads (see DESIGN.md §2).
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

#include "matrix/block_stats.hpp"
#include "matrix/generate.hpp"

namespace spaden::mat {
namespace {

TEST(RandomUniform, ExactNnzDistinctPositionsValidValues) {
  const Coo m = random_uniform(100, 80, 2000, 42);
  EXPECT_EQ(m.nnz(), 2000u);
  EXPECT_NO_THROW(m.validate());
  const Csr a = Csr::from_coo(m);
  EXPECT_EQ(a.nnz(), 2000u);  // no duplicates collapsed
  for (const float v : a.val) {
    EXPECT_GE(std::abs(v), 0.1f);  // bounded away from zero
    EXPECT_LE(std::abs(v), 1.0f);
  }
}

TEST(RandomUniform, DeterministicPerSeed) {
  const Csr a = Csr::from_coo(random_uniform(50, 50, 500, 7));
  const Csr b = Csr::from_coo(random_uniform(50, 50, 500, 7));
  EXPECT_EQ(a, b);
  const Csr c = Csr::from_coo(random_uniform(50, 50, 500, 8));
  EXPECT_NE(a.col_idx, c.col_idx);
}

TEST(RandomUniform, RejectsOverfull) {
  EXPECT_THROW((void)random_uniform(4, 4, 17, 1), spaden::Error);
}

/// The message of the spaden::Error `f` throws, or "no error".
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const spaden::Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(RandomUniform, RejectsMoreNonzerosThanTheIndexHolds) {
  // Checked before the position set is sized from the count.
  const std::string msg = error_of(
      [] { (void)random_uniform(Index{1} << 20, Index{1} << 20, kMaxIndexCount + 1, 1); });
  EXPECT_NE(msg.find("random_uniform: 4294967296 nonzeros are above the index limit"),
            std::string::npos)
      << msg;
}

TEST(Rmat, PowerLawDegreesAndDims) {
  const Coo m = rmat(10, 8.0, 3);
  EXPECT_EQ(m.nrows, 1024u);
  const Csr a = Csr::from_coo(m);
  Index max_deg = 0;
  for (Index r = 0; r < a.nrows; ++r) {
    max_deg = std::max(max_deg, a.row_nnz(r));
  }
  // Skewed partition concentrates edges: the max degree far exceeds the
  // average (~8).
  EXPECT_GT(max_deg, 40u);
}

TEST(Rmat, ValidatesPartition) {
  EXPECT_THROW((void)rmat(5, 2.0, 1, 0.5, 0.5, 0.5, 0.5), spaden::Error);
  EXPECT_THROW((void)rmat(0, 2.0, 1), spaden::Error);
}

TEST(Rmat, RejectsMoreEdgesThanTheIndexHolds) {
  // 2^30 vertices at 8 edges each would wrap row_ptr. Checked before the
  // edge arrays are reserved; 4 edges each is exactly one past the limit.
  std::string msg = error_of([] { (void)rmat(30, 8.0, 1); });
  EXPECT_NE(msg.find("rmat: 8589934592 edges are above the index limit 4294967295"),
            std::string::npos)
      << msg;
  msg = error_of([] { (void)rmat(30, 4.0, 1); });
  EXPECT_NE(msg.find("rmat: 4294967296 edges"), std::string::npos) << msg;
  msg = error_of([] { (void)rmat(10, -1.0, 1); });
  EXPECT_NE(msg.find("edge factor -1 must be finite"), std::string::npos) << msg;
}

TEST(Banded, EntriesWithinBandDiagonalAlwaysPresent) {
  const Coo m = banded(64, 3, 0.4, 5);
  const Csr a = Csr::from_coo(m);
  for (Index r = 0; r < a.nrows; ++r) {
    bool diag = false;
    for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      const auto d = static_cast<long long>(a.col_idx[i]) - static_cast<long long>(r);
      EXPECT_LE(std::abs(d), 3);
      diag |= d == 0;
    }
    EXPECT_TRUE(diag) << "row " << r;
  }
}

TEST(BandedSpd, SymmetricAndDiagonallyDominant) {
  const Csr a = banded_spd(100, 4, 0.6, 9);
  const Csr at = a.transpose();
  EXPECT_EQ(a, at);
  for (Index r = 0; r < a.nrows; ++r) {
    double diag = 0;
    double off = 0;
    for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      if (a.col_idx[i] == r) {
        diag = a.val[i];
      } else {
        off += std::abs(static_cast<double>(a.val[i]));
      }
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

MatrixProfile test_profile() {
  MatrixProfile p;
  p.name = "synthetic-test";
  p.nrow = 4096;
  p.nnz = 120'000;
  p.bnnz = 6'000;
  p.sparse_frac = 0.7;
  p.medium_frac = 0.2;
  p.dense_frac = 0.1;
  p.diag_focus = 0.8;
  p.band_width = 0.05;
  return p;
}

TEST(Synthesize, HitsTargetsExactly) {
  const MatrixProfile p = test_profile();
  const Csr a = synthesize(p, 1.0, 77);
  EXPECT_EQ(a.nrows, p.nrow);
  EXPECT_EQ(a.nnz(), p.nnz);
  const BitBsr b = BitBsr::from_csr(a);
  EXPECT_EQ(b.bnnz(), p.bnnz);
  EXPECT_NO_THROW(a.validate());
}

TEST(Synthesize, CategoryMixApproximatelyRespected) {
  const MatrixProfile p = test_profile();
  const BlockStats s = compute_block_stats(BitBsr::from_csr(synthesize(p, 1.0, 78)));
  EXPECT_NEAR(s.sparse_ratio(), 0.7, 0.12);
  EXPECT_NEAR(s.medium_ratio(), 0.2, 0.12);
  EXPECT_NEAR(s.dense_ratio(), 0.1, 0.10);
}

TEST(Synthesize, ScalingShrinksLinearly) {
  const MatrixProfile p = test_profile();
  const Csr a = synthesize(p, 0.25, 79);
  EXPECT_NEAR(static_cast<double>(a.nrows), p.nrow * 0.25, 8);
  EXPECT_NEAR(static_cast<double>(a.nnz()), static_cast<double>(p.nnz) * 0.25,
              static_cast<double>(p.nnz) * 0.01);
  const BitBsr b = BitBsr::from_csr(a);
  EXPECT_NEAR(static_cast<double>(b.bnnz()), static_cast<double>(p.bnnz) * 0.25,
              static_cast<double>(p.bnnz) * 0.01);
}

TEST(Synthesize, DeterministicPerSeed) {
  const MatrixProfile p = test_profile();
  EXPECT_EQ(synthesize(p, 0.5, 1), synthesize(p, 0.5, 1));
}

TEST(Synthesize, DenseProfileProducesFullBlocks) {
  // raefsky3-like: nnz/bnnz == 64 forces every (interior) block full.
  MatrixProfile p = test_profile();
  p.nnz = p.bnnz * 64;
  p.dense_frac = 1.0;
  p.sparse_frac = 0.0;
  p.medium_frac = 0.0;
  const BlockStats s = compute_block_stats(BitBsr::from_csr(synthesize(p, 1.0, 80)));
  EXPECT_GT(s.dense_ratio(), 0.99);
}

TEST(Synthesize, InfeasibleNnzClampedNotFatal) {
  MatrixProfile p = test_profile();
  p.nrow = 100;  // tiny grid: capacity caps the target
  p.bnnz = 100;
  p.nnz = 100 * 64;  // would need every block full incl. edge partials
  const Csr a = synthesize(p, 1.0, 81);
  EXPECT_GT(a.nnz(), 0u);
  EXPECT_LE(a.nnz(), 100u * 64u);
}

TEST(Synthesize, RejectsBadScale) {
  EXPECT_THROW((void)synthesize(test_profile(), 0.0, 1), spaden::Error);
  EXPECT_THROW((void)synthesize(test_profile(), 1.5, 1), spaden::Error);
}

}  // namespace
}  // namespace spaden::mat
