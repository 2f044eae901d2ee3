// Format/method recommendation analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/recommend.hpp"
#include "core/spaden.hpp"
#include "common/error.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::analysis {
namespace {

TEST(Recommend, CoversAllFormats) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(200, 200, 4000, 1));
  const Recommendation rec = recommend(a, sim::l40(), /*benchmark_methods=*/false);
  std::vector<std::string> names;
  for (const auto& f : rec.formats) {
    names.push_back(f.format);
  }
  // Exactly the formats the engine can serve, in any order.
  std::vector<std::string> expected = {"CSR", "BSR 8x8", "bitBSR"};
  std::sort(names.begin(), names.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names, expected);
}

TEST(Recommend, BitBsrIsMostCompactOnBlockFriendlyMatrix) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const Recommendation rec = recommend(a, sim::l40(), false);
  // Sorted: the first suitable entry is the cheapest.
  EXPECT_EQ(rec.formats.front().format, "bitBSR");
}

TEST(Recommend, Bsr8FlaggedUnsuitableOnScatteredMatrix) {
  // Scattered entries fill well under half of each 8x8 block.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(300, 300, 5000, 2));
  const Recommendation rec = recommend(a, sim::l40(), false);
  ASSERT_FALSE(rec.formats.empty());
  EXPECT_EQ(rec.formats.back().format, "BSR 8x8");
  EXPECT_FALSE(rec.formats.back().suitable);
  // Unsuitable formats sort last.
  EXPECT_TRUE(rec.formats.front().suitable);
}

TEST(Recommend, HeuristicMatchesEngineAutoSelect) {
  const mat::Csr big = mat::load_dataset("consph", 0.25);
  EXPECT_EQ(recommend(big, sim::l40(), false).heuristic_method,
            spaden::SpmvEngine::auto_select(big));
  const mat::Csr small = mat::Csr::from_coo(mat::random_uniform(100, 100, 500, 3));
  EXPECT_EQ(recommend(small, sim::l40(), false).heuristic_method,
            kern::Method::CusparseCsr);
}

TEST(Recommend, BenchmarkedMethodsSortedDescending) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const Recommendation rec = recommend(a, sim::l40(), true);
  ASSERT_EQ(rec.methods.size(), 3u);
  EXPECT_GE(rec.methods[0].modeled_gflops, rec.methods[1].modeled_gflops);
  EXPECT_GE(rec.methods[1].modeled_gflops, rec.methods[2].modeled_gflops);
  EXPECT_EQ(rec.best_method, rec.methods.front().method);
}

TEST(Recommend, MeasuredRankingIgnoresSimThreads) {
  // The measured ranking runs under one pinned simulator configuration (one
  // thread, rr, shared L2), so SPADEN_SIM_THREADS moves no GFLOPS figure.
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const char* old = std::getenv("SPADEN_SIM_THREADS");
  const std::string saved = old != nullptr ? old : "";
  std::vector<Recommendation> recs;
  for (const char* threads : {"1", "4"}) {
    setenv("SPADEN_SIM_THREADS", threads, 1);
    recs.push_back(recommend(a, sim::l40(), true));
  }
  if (old != nullptr) {
    setenv("SPADEN_SIM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("SPADEN_SIM_THREADS");
  }
  ASSERT_EQ(recs[0].methods.size(), recs[1].methods.size());
  for (std::size_t i = 0; i < recs[0].methods.size(); ++i) {
    EXPECT_EQ(recs[0].methods[i].method, recs[1].methods[i].method);
    EXPECT_EQ(recs[0].methods[i].modeled_gflops, recs[1].methods[i].modeled_gflops);
  }
}

TEST(Recommend, SummaryMentionsEveryFormat) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 600, 4));
  const std::string s = recommend(a, sim::l40(), false).summary();
  EXPECT_NE(s.find("bitBSR"), std::string::npos);
  EXPECT_NE(s.find("recommended method"), std::string::npos);
}

TEST(Recommend, EmptyMatrixRejected) {
  mat::Csr empty;
  empty.nrows = 4;
  empty.ncols = 4;
  empty.row_ptr = {0, 0, 0, 0, 0};
  EXPECT_THROW((void)recommend(empty), spaden::Error);
}

}  // namespace
}  // namespace spaden::analysis
