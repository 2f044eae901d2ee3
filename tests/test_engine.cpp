// Public SpmvEngine API: auto method selection (paper §5.1), multiply,
// preprocessing records, degenerate shapes through multiply and
// multiply_batch.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/spaden.hpp"
#include "kernels/segments.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden {
namespace {

TEST(Engine, AutoSelectionFollowsPaperHeuristic) {
  // §5.1: Spaden for nrow > 10,000 && nnz/nrow > 32, CSR otherwise.
  const mat::Csr big_dense_rows = mat::load_dataset("cant", 0.25);  // ~15k rows, deg 64
  EXPECT_EQ(SpmvEngine::auto_select(big_dense_rows), kern::Method::Spaden);

  const mat::Csr small = mat::Csr::from_coo(mat::random_uniform(1000, 1000, 50000, 1));
  EXPECT_EQ(SpmvEngine::auto_select(small), kern::Method::CusparseCsr);  // nrow too small

  const mat::Csr sparse_rows =
      mat::Csr::from_coo(mat::random_uniform(20000, 20000, 100000, 2));  // deg 5
  EXPECT_EQ(SpmvEngine::auto_select(sparse_rows), kern::Method::CusparseCsr);
}

TEST(Engine, MultiplyMatchesReference) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(400, 400, 9000, 3));
  SpmvEngine engine(a, {.method = kern::Method::Spaden});
  std::vector<float> x(a.ncols, 0.25f);
  std::vector<float> y;
  const SpmvResult r = engine.multiply(x, y);
  ASSERT_EQ(y.size(), a.nrows);
  const auto ref = mat::spmv_reference(a, x);
  for (mat::Index i = 0; i < a.nrows; ++i) {
    EXPECT_NEAR(y[i], ref[i], 0.05);
  }
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_GT(r.modeled_seconds, 0.0);
  // 25 block-row pairs leave the device underfilled, so the segment plan
  // cuts them, each down to segments of at least kShortestSegment
  // iterations: one warp per segment.
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  EXPECT_EQ(r.stats.warps_launched,
            kern::plan_segments(kern::unit_iterations(bb, true)).segments.size());
  EXPECT_EQ(r.stats.warps_launched, 150u);
}

TEST(Engine, DefaultsToAutoAndL40) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(100, 100, 800, 4));
  SpmvEngine engine(a);
  EXPECT_EQ(engine.chosen_method(), kern::Method::CusparseCsr);  // small matrix
  EXPECT_EQ(engine.device().name, "L40");
  EXPECT_EQ(engine.nrows(), 100u);
  EXPECT_EQ(engine.nnz(), 800u);
}

TEST(Engine, PrepInfoPopulated) {
  const mat::Csr a = mat::load_dataset("rma10", 0.02);
  SpmvEngine engine(a, {.method = kern::Method::Spaden});
  const PrepInfo& p = engine.prep();
  EXPECT_GT(p.seconds, 0.0);
  EXPECT_GT(p.ns_per_nnz, 0.0);
  EXPECT_GT(p.footprint.total_bytes(), 0u);
  EXPECT_NEAR(p.bytes_per_nnz, 2.85, 1.2);  // the paper's headline footprint
}

TEST(Engine, RejectsWrongXSize) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 500, 5));
  SpmvEngine engine(a);
  std::vector<float> x(63);
  std::vector<float> y;
  EXPECT_THROW((void)engine.multiply(x, y), Error);
}

TEST(Engine, V100DeviceOption) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(256, 256, 4000, 6));
  SpmvEngine engine(a, {.method = kern::Method::Spaden, .device = sim::v100()});
  EXPECT_EQ(engine.device().name, "V100");
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  EXPECT_NO_THROW((void)engine.multiply(x, y));
}

TEST(Engine, RepeatedMultipliesConsistent) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(128, 128, 2000, 7));
  SpmvEngine engine(a, {.method = kern::Method::CusparseCsr});
  std::vector<float> x(a.ncols, 0.5f);
  std::vector<float> y1;
  std::vector<float> y2;
  (void)engine.multiply(x, y1);
  (void)engine.multiply(x, y2);
  EXPECT_EQ(y1, y2);
}

TEST(Engine, MoveSemantics) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 400, 8));
  SpmvEngine engine(a, {.method = kern::Method::Gunrock});
  SpmvEngine moved = std::move(engine);
  EXPECT_EQ(moved.chosen_method(), kern::Method::Gunrock);
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  EXPECT_NO_THROW((void)moved.multiply(x, y));
}

/// nrows x ncols with every entry of its leading dense_rows x dense_cols
/// corner nonzero (the whole matrix by default).
mat::Csr dense_matrix(mat::Index nrows, mat::Index ncols, mat::Index dense_rows = ~0U,
                      mat::Index dense_cols = ~0U) {
  mat::Coo coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  for (mat::Index r = 0; r < std::min(nrows, dense_rows); ++r) {
    for (mat::Index c = 0; c < std::min(ncols, dense_cols); ++c) {
      coo.row.push_back(r);
      coo.col.push_back(c);
      coo.val.push_back(0.5f + 0.25f * static_cast<float>((r + c) % 3));
    }
  }
  return mat::Csr::from_coo(coo);
}

TEST(EngineEdges, DegenerateShapesThroughMultiplyAndBatch) {
  // Every method, through both the single and the batched path (the fused
  // CSR/BSR column grid, Spaden's strided SpMM, the per-column base loop),
  // on empty and one-row shapes, a bitBSR matrix whose edge blocks are
  // empty, and one ordinary matrix, on one device and row-sharded across
  // two. Sancheck runs throughout: the batched launches write k disjoint y
  // slices, so any finding is a real race or out-of-bounds access.
  const std::pair<const char*, mat::Csr> shapes[] = {
      {"0x5", dense_matrix(0, 5)},
      {"5x0", dense_matrix(5, 0)},
      {"0x0", dense_matrix(0, 0)},
      {"1x1 dense", dense_matrix(1, 1)},
      {"3x300 dense", dense_matrix(3, 300)},
      {"45x45 empty edge blocks", dense_matrix(45, 45, 32, 32)},
      {"96x96 random", mat::Csr::from_coo(mat::random_uniform(96, 96, 1200, 13))},
  };
  for (const kern::Method m : kern::all_methods()) {
    for (const auto& [shape, a] : shapes) {
      const double tolerance = kern::spmv_tolerance(a, kern::uses_half_values(m));
      for (const int devices : {1, 2}) {
        for (const mat::Index k : {mat::Index{1}, mat::Index{3}}) {
          SCOPED_TRACE(std::string(kern::method_name(m)) + " " + shape + " devices=" +
                       std::to_string(devices) + " k=" + std::to_string(k));
          std::vector<std::vector<float>> xs(k, std::vector<float>(a.ncols));
          Rng rng(k);
          for (std::vector<float>& x : xs) {
            for (float& v : x) {
              v = rng.next_float(-1.0f, 1.0f);
            }
          }
          const auto expect_close = [&](const std::vector<float>& y,
                                        const std::vector<float>& x) {
            ASSERT_EQ(y.size(), a.nrows);
            const std::vector<double> ref = mat::spmv_reference(a, x);
            for (mat::Index r = 0; r < a.nrows; ++r) {
              EXPECT_NEAR(y[r], ref[r], tolerance) << "row " << r;
            }
          };
          EngineOptions opts;
          opts.method = m;
          opts.sanitize = true;
          opts.num_devices = devices;
          SpmvEngine engine(a, opts);
          for (const std::vector<float>& x : xs) {
            std::vector<float> y;
            SpmvResult r;
            ASSERT_NO_THROW(r = engine.multiply(x, y));
            EXPECT_TRUE(r.sanitizer.enabled);
            EXPECT_EQ(r.sanitizer.total(), 0U);
            expect_close(y, x);
          }
          std::vector<std::vector<float>> ys;
          if (devices > 1 && k > 1) {
            // A batch needs one device: the halo model covers one column.
            EXPECT_THROW((void)engine.multiply_batch(xs, ys), Error);
            continue;
          }
          SpmvResult batch;
          ASSERT_NO_THROW(batch = engine.multiply_batch(xs, ys));
          EXPECT_TRUE(batch.sanitizer.enabled);
          EXPECT_EQ(batch.sanitizer.total(), 0U) << batch.sanitizer.summary();
          ASSERT_EQ(ys.size(), xs.size());
          for (mat::Index c = 0; c < k; ++c) {
            expect_close(ys[c], xs[c]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace spaden
