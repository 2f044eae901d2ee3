// spaden-serve: the matrix registry's prepare/hit/evict lifecycle, the
// batch former's size/window triggers in virtual time, the subsystem's two
// headline contracts — fused batched results bit-identical to sequential
// SpmvEngine::multiply calls (across every kernel method), and replay
// exports byte-identical across simulator thread counts and scheduler
// policies — plus the engine-level hooks serving rides on (x upload-skip,
// batch-id span nesting, one-launch CSR/BSR batches).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/recommend.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/spaden.hpp"
#include "matrix/generate.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"

namespace spaden {
namespace {

mat::Csr small_matrix(mat::Index n, std::size_t nnz, std::uint64_t seed) {
  return mat::Csr::from_coo(mat::random_uniform(n, n, nnz, seed));
}

std::vector<float> random_x(mat::Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (float& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  return x;
}

// ---------------------------------------------------------------- registry

TEST(ServeRegistry, PrepareHitEvictUnderTightBudget) {
  serve::RegistryConfig cfg;
  cfg.budget_bytes = 1;  // any prepared matrix overflows: strict LRU of one
  serve::MatrixRegistry reg(cfg);
  const serve::Handle h1 = reg.add("a", small_matrix(64, 512, 1));
  const serve::Handle h2 = reg.add("b", small_matrix(64, 512, 2));
  EXPECT_FALSE(reg.resident(h1));
  EXPECT_EQ(reg.bytes_of(h1), 0U);

  (void)reg.acquire(h1);  // miss: converts + uploads; over budget but alone
  EXPECT_TRUE(reg.resident(h1));
  EXPECT_GT(reg.bytes_of(h1), 0U);
  EXPECT_EQ(reg.stats().prepares, 1U);
  EXPECT_EQ(reg.stats().evictions, 0U);

  (void)reg.acquire(h1);  // hit
  EXPECT_EQ(reg.stats().hits, 1U);
  EXPECT_EQ(reg.stats().prepares, 1U);

  (void)reg.acquire(h2);  // prepares b, evicts a (LRU, not the keep target)
  EXPECT_TRUE(reg.resident(h2));
  EXPECT_FALSE(reg.resident(h1));
  EXPECT_EQ(reg.stats().prepares, 2U);
  EXPECT_EQ(reg.stats().evictions, 1U);
  EXPECT_EQ(reg.stats().resident_bytes, reg.bytes_of(h2));

  (void)reg.acquire(h1);  // re-prepare after eviction; b goes
  EXPECT_EQ(reg.stats().prepares, 3U);
  EXPECT_EQ(reg.stats().evictions, 2U);
  EXPECT_FALSE(reg.resident(h2));
}

TEST(ServeRegistry, MethodFollowsRecommendation) {
  serve::MatrixRegistry reg;
  const mat::Csr a = small_matrix(96, 900, 3);
  const serve::Handle h = reg.add("a", a);
  const analysis::Recommendation rec =
      analysis::recommend(a, reg.config().engine.device, /*benchmark_methods=*/false);
  EXPECT_EQ(reg.method_of(h), rec.heuristic_method);
  EXPECT_EQ(reg.acquire(h).chosen_method(), rec.heuristic_method);

  mat::Csr empty;
  empty.nrows = 4;
  empty.ncols = 4;
  empty.row_ptr = {0, 0, 0, 0, 0};
  EXPECT_THROW((void)reg.add("empty", empty), Error);
}

TEST(ServeRegistry, SimThreadsKnobIsRangeChecked) {
  // SPADEN_SERVE_SIM_THREADS sizes every serve-owned engine (it reproduces
  // the T = 4 Gunrock demux defect); it must parse strictly.
  setenv("SPADEN_SERVE_SIM_THREADS", "4", 1);
  EXPECT_EQ(serve::pinned_engine_options().sim_threads, 4);
  for (const char* bad : {"0", "300", "x"}) {
    setenv("SPADEN_SERVE_SIM_THREADS", bad, 1);
    try {
      (void)serve::pinned_engine_options();
      ADD_FAILURE() << "SPADEN_SERVE_SIM_THREADS=" << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SPADEN_SERVE_SIM_THREADS"), std::string::npos)
          << e.what();
    }
  }
  unsetenv("SPADEN_SERVE_SIM_THREADS");
  EXPECT_EQ(serve::pinned_engine_options().sim_threads, 1);
}

// ------------------------------------------------------------ batch former

TEST(ServeServer, SizeAndWindowTriggersInVirtualTime) {
  serve::MatrixRegistry reg;
  const serve::Handle h = reg.add("a", small_matrix(64, 512, 4));
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.window_seconds = 100e-6;
  serve::SpmvServer server(reg, cfg);

  // Four arrivals 1us apart: the group fills at the 4th arrival and
  // dispatches immediately (size trigger), before its 100us window.
  for (std::uint64_t i = 0; i < 4; ++i) {
    serve::Request req;
    req.id = i;
    req.handle = h;
    req.arrival_seconds = static_cast<double>(i) * 1e-6;
    req.x = random_x(64, 10 + i);
    server.submit(std::move(req));
  }
  // Two arrivals much later: the group never fills, so it dispatches when
  // the window expires at first-arrival + 100us (the device is idle again
  // by then).
  for (std::uint64_t i = 4; i < 6; ++i) {
    serve::Request req;
    req.id = i;
    req.handle = h;
    req.arrival_seconds = 1.0 + static_cast<double>(i - 4) * 1e-6;
    req.x = random_x(64, 10 + i);
    server.submit(std::move(req));
  }
  const serve::ServeReport report = server.drain();

  ASSERT_EQ(report.requests, 6U);
  EXPECT_EQ(report.batches, 2U);
  EXPECT_EQ(report.fused_batches, 2U);
  EXPECT_EQ(report.batch_width_counts.at(4), 1U);
  EXPECT_EQ(report.batch_width_counts.at(2), 1U);
  EXPECT_EQ(report.results[0].batch_width, 4);
  EXPECT_TRUE(report.results[0].fused);
  // Size trigger: dispatched at the 4th request's arrival.
  EXPECT_DOUBLE_EQ(report.results[0].start_seconds, 3e-6);
  // Window trigger: dispatched at first-of-group arrival + window.
  EXPECT_DOUBLE_EQ(report.results[4].start_seconds, 1.0 + 100e-6);
  EXPECT_NEAR(report.results[4].queue_seconds, 100e-6, 1e-9);
  for (const serve::RequestResult& r : report.results) {
    EXPECT_EQ(r.y.size(), 64U);
    EXPECT_DOUBLE_EQ(r.finish_seconds, r.start_seconds + r.service_seconds);
  }
}

TEST(ServeServer, SingletonFallsBackToSpmv) {
  serve::MatrixRegistry reg;
  const serve::Handle h = reg.add("a", small_matrix(64, 512, 5));
  serve::SpmvServer server(reg);
  serve::Request req;
  req.handle = h;
  req.x = random_x(64, 20);
  const std::vector<float> x = req.x;
  server.submit(std::move(req));
  const serve::ServeReport report = server.drain();

  ASSERT_EQ(report.requests, 1U);
  EXPECT_EQ(report.fused_batches, 0U);
  EXPECT_EQ(report.results[0].batch_width, 1);
  EXPECT_FALSE(report.results[0].fused);

  std::vector<float> y;
  (void)reg.acquire(h).multiply(x, y);
  ASSERT_EQ(report.results[0].y.size(), y.size());
  EXPECT_EQ(std::memcmp(report.results[0].y.data(), y.data(), y.size() * sizeof(float)), 0);
}

// ------------------------------------------------------------ bit-exactness

// Batched results of `opts`'s method on `a`, demuxed, and one sequential
// multiply per column on the same engine.
struct Demux {
  std::vector<std::vector<float>> batched;
  std::vector<std::vector<float>> sequential;
};

Demux run_demux(const mat::Csr& a, const EngineOptions& opts,
                const std::vector<std::vector<float>>& xs) {
  SpmvEngine engine(a, opts);
  Demux d;
  d.sequential.resize(xs.size());
  for (std::size_t c = 0; c < xs.size(); ++c) {
    (void)engine.multiply(xs[c], d.sequential[c]);
  }
  (void)engine.multiply_batch(xs, d.batched);
  return d;
}

void expect_demux_bit_exact(const mat::Csr& a, const EngineOptions& opts,
                            const std::vector<std::vector<float>>& xs) {
  const std::string_view name = kern::method_name(*opts.method);
  const Demux d = run_demux(a, opts, xs);
  ASSERT_EQ(d.batched.size(), d.sequential.size());
  for (std::size_t c = 0; c < xs.size(); ++c) {
    ASSERT_EQ(d.batched[c].size(), d.sequential[c].size()) << name;
    EXPECT_EQ(std::memcmp(d.batched[c].data(), d.sequential[c].data(),
                          d.batched[c].size() * sizeof(float)),
              0)
        << "batched column " << c << " diverges from sequential multiply for method "
        << name;
  }
}

/// Methods whose warps combine partial sums of one row through float
/// atomics (Gunrock, CSR-Adaptive past its 64-nonzero row block, DASP):
/// their add order follows the schedule, which a batched launch meets in a
/// different cache state than a sequential one, so their demux is held to
/// the SpMV tolerance rather than bit-exactness.
bool uses_float_atomics(kern::Method m) {
  return m == kern::Method::Gunrock || m == kern::Method::CsrAdaptive ||
         m == kern::Method::Dasp;
}

void expect_demux_within_tolerance(const mat::Csr& a, const EngineOptions& opts,
                                   const std::vector<std::vector<float>>& xs) {
  const std::string_view name = kern::method_name(*opts.method);
  const Demux d = run_demux(a, opts, xs);
  const double tol = kern::spmv_tolerance(a, /*half_precision_values=*/true);
  ASSERT_EQ(d.batched.size(), d.sequential.size());
  for (std::size_t c = 0; c < xs.size(); ++c) {
    ASSERT_EQ(d.batched[c].size(), d.sequential[c].size()) << name;
    for (std::size_t i = 0; i < d.batched[c].size(); ++i) {
      EXPECT_NEAR(d.batched[c][i], d.sequential[c][i], tol)
          << "batched column " << c << " row " << i << " for method " << name;
    }
  }
}

// Ragged batch inputs: shapes whose ncols and nrows are not multiples of 8,
// so the fused Spaden SpMM's last x segment runs into the stack's zero pads
// (where the SpMV kernel skips the loads) and y columns end mid-sector.
struct RaggedShape {
  mat::Index nrows;
  mat::Index ncols;
  std::size_t nnz;
};
constexpr RaggedShape kRaggedShapes[] = {{101, 97, 1500}, {13, 203, 600}};
constexpr mat::Index kRaggedWidths[] = {1, 5, 9, 16, 24, 33};

// Long block-row pairs: 96 rows of about `per_row` nonzeros over `ncols`
// columns give 6 pairs of more than 8 iterations each, so the Spaden
// family's segment plan cuts every pair and the fused SpMM hands off
// 16 x k partials per segment.
mat::Csr long_pair_matrix(mat::Index ncols, std::size_t per_row) {
  return mat::Csr::from_coo(mat::random_uniform(96, ncols, 96 * per_row, 14));
}

// k right-hand sides whose last partial block column is strictly negative,
// so its entries meet structural zeros as -0 products (in the fused kernel
// also across slots), which must leave every sum unchanged.
std::vector<std::vector<float>> ragged_xs(mat::Index ncols, mat::Index k, std::uint64_t seed) {
  std::vector<std::vector<float>> xs;
  for (mat::Index c = 0; c < k; ++c) {
    std::vector<float> x = random_x(ncols, seed + c);
    Rng rng(seed + 1000 + c);
    for (mat::Index i = ncols / 8 * 8; i < ncols; ++i) {
      x[i] = rng.next_float(-1.0f, -0.125f);
    }
    xs.push_back(std::move(x));
  }
  return xs;
}

TEST(ServeBatch, DemuxBitExactAcrossAllMethods) {
  const mat::Csr a = small_matrix(96, 1200, 6);
  std::vector<std::vector<float>> xs;
  for (std::uint64_t c = 0; c < 5; ++c) {
    xs.push_back(random_x(96, 30 + c));
  }
  for (const kern::Method m : kern::all_methods()) {
    EngineOptions opts = serve::pinned_engine_options();
    opts.method = m;
    expect_demux_bit_exact(a, opts, xs);
  }
  for (const RaggedShape& shape : kRaggedShapes) {
    const mat::Csr ragged =
        mat::Csr::from_coo(mat::random_uniform(shape.nrows, shape.ncols, shape.nnz, 8));
    for (const mat::Index k : kRaggedWidths) {
      SCOPED_TRACE(testing::Message() << shape.nrows << "x" << shape.ncols << " k=" << k);
      const std::vector<std::vector<float>> ragged_x = ragged_xs(shape.ncols, k, 50);
      for (const kern::Method m : kern::all_methods()) {
        EngineOptions opts = serve::pinned_engine_options();
        opts.method = m;
        expect_demux_bit_exact(ragged, opts, ragged_x);
      }
    }
  }
  // About 256 iterations per pair, 32 segments each. Its rows are long
  // enough for the float-atomic methods to combine row chunks, so those
  // are held to the tolerance here; every other method, the Spaden family
  // this case exists for among them, stays bit-exact.
  const mat::Csr long_pairs = long_pair_matrix(4096, 600);
  for (const mat::Index k : kRaggedWidths) {
    SCOPED_TRACE(testing::Message() << "long pairs k=" << k);
    const std::vector<std::vector<float>> long_x = ragged_xs(long_pairs.ncols, k, 80);
    for (const kern::Method m : kern::all_methods()) {
      EngineOptions opts = serve::pinned_engine_options();
      opts.method = m;
      if (uses_float_atomics(m)) {
        expect_demux_within_tolerance(long_pairs, opts, long_x);
      } else {
        expect_demux_bit_exact(long_pairs, opts, long_x);
      }
    }
  }
}

TEST(ServeBatch, DemuxBitExactWithXBeyondHalfRange) {
  // One x entry converts to inf (1e5) or NaN in binary16. The fused Spaden
  // SpMM would multiply it by the paired block-row's zero A block (0 * inf
  // = NaN); the batch must still equal sequential multiplies byte for byte.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(101, 97, 200, 8));
  for (const float bad : {1e5f, -7e4f, std::numeric_limits<float>::quiet_NaN()}) {
    SCOPED_TRACE(testing::Message() << "x[3][40] = " << bad);
    std::vector<std::vector<float>> xs = ragged_xs(a.ncols, 16, 70);
    xs[3][40] = bad;
    EngineOptions opts = serve::pinned_engine_options();
    opts.method = kern::Method::Spaden;
    expect_demux_bit_exact(a, opts, xs);
  }
}

TEST(ServeBatch, RaggedBatchesAreSancheckClean) {
  // Every stack pad the fused kernels read is written by the upload, and no
  // method reads or writes past its stack columns. On the long-pair matrix
  // every Spaden-family segment hands off through atomics only.
  std::vector<mat::Csr> matrices;
  for (const RaggedShape& shape : kRaggedShapes) {
    matrices.push_back(
        mat::Csr::from_coo(mat::random_uniform(shape.nrows, shape.ncols, shape.nnz, 9)));
  }
  matrices.push_back(long_pair_matrix(1024, 160));  // about 64 iterations per pair
  for (const mat::Csr& a : matrices) {
    const RaggedShape shape{a.nrows, a.ncols, a.nnz()};
    for (const mat::Index k : kRaggedWidths) {
      const std::vector<std::vector<float>> xs = ragged_xs(shape.ncols, k, 60);
      for (const kern::Method m : kern::all_methods()) {
        SCOPED_TRACE(testing::Message() << kern::method_name(m) << " " << shape.nrows << "x"
                                        << shape.ncols << " k=" << k);
        EngineOptions opts = serve::pinned_engine_options();
        opts.method = m;
        opts.sanitize = true;
        SpmvEngine engine(a, opts);
        std::vector<std::vector<float>> ys;
        const SpmvResult r = engine.multiply_batch(xs, ys);
        ASSERT_EQ(ys.size(), k);
        EXPECT_TRUE(r.sanitizer.enabled);
        EXPECT_TRUE(r.sanitizer.clean()) << r.sanitizer.summary();
      }
    }
  }
}

TEST(ServeBatch, ColumnGridDemuxBitExactAtFourSimThreads) {
  // The fused CSR/BSR column grid spreads each column's warps over four
  // virtual SMs, each with its own L2 slice; every warp still does exactly its column's
  // SpMV arithmetic, so the demux stays bit-exact under the interleaving
  // scheduler.
  const mat::Csr a = small_matrix(96, 1200, 7);
  std::vector<std::vector<float>> xs;
  for (std::uint64_t c = 0; c < 4; ++c) {
    xs.push_back(random_x(96, 40 + c));
  }
  for (const kern::Method m : {kern::Method::CusparseCsr, kern::Method::CusparseBsr}) {
    EngineOptions opts = serve::pinned_engine_options();
    opts.method = m;
    opts.sim_threads = 4;
    opts.sched = sim::SchedConfig{sim::SchedPolicy::RoundRobin, 0};
    expect_demux_bit_exact(a, opts, xs);
  }
}

// ------------------------------------------------------------- determinism

TEST(ServeReplay, ExportsByteIdenticalAcrossSimConfigs) {
  serve::ReplaySpec spec;
  spec.requests = 48;
  spec.arrival_rate = 4e6;
  spec.matrices = {"rmat:6", "rmat:7"};
  spec.tenants = 2;

  // The serve determinism contract: pinned engine options ignore the
  // ambient simulator env, so the exports must not move a byte across
  // thread counts or scheduler policies.
  setenv("SPADEN_SIM_THREADS", "1", 1);
  setenv("SPADEN_SIM_SCHED", "serial", 1);
  const serve::ReplayResult first = serve::run_replay(spec);
  setenv("SPADEN_SIM_THREADS", "4", 1);
  setenv("SPADEN_SIM_SCHED", "rr", 1);
  const serve::ReplayResult second = serve::run_replay(spec);
  unsetenv("SPADEN_SIM_THREADS");
  unsetenv("SPADEN_SIM_SCHED");

  EXPECT_TRUE(first.demux_ok);
  EXPECT_TRUE(second.demux_ok);
  EXPECT_EQ(first.bench_json, second.bench_json);
  EXPECT_EQ(first.metrics.json(/*include_host=*/false),
            second.metrics.json(/*include_host=*/false));
  EXPECT_EQ(first.batched.requests_per_second, second.batched.requests_per_second);
  EXPECT_EQ(first.batched.batch_width_counts, second.batched.batch_width_counts);
}

TEST(ServeReplay, SpecParserRoundTripsAndRejectsUnknownKeys) {
  const serve::ReplaySpec spec = serve::parse_replay_spec(
      R"({"seed": 7, "requests": 12, "arrival_rate": 1e6, "max_batch": 16,
          "window_us": 50, "tenants": 3, "tenant_skew": 0.5,
          "matrices": ["rmat:6"]})");
  EXPECT_EQ(spec.seed, 7U);
  EXPECT_EQ(spec.requests, 12U);
  EXPECT_DOUBLE_EQ(spec.arrival_rate, 1e6);
  EXPECT_EQ(spec.max_batch, 16);
  EXPECT_DOUBLE_EQ(spec.window_seconds, 50e-6);
  EXPECT_EQ(spec.tenants, 3);
  EXPECT_DOUBLE_EQ(spec.tenant_skew, 0.5);
  ASSERT_EQ(spec.matrices.size(), 1U);
  EXPECT_EQ(spec.matrices[0], "rmat:6");
  EXPECT_THROW((void)serve::parse_replay_spec(R"({"requets": 12})"), Error);
  EXPECT_THROW((void)serve::parse_replay_spec(R"({"requests": 0})"), Error);
}

// ----------------------------------------------------------- engine hooks

TEST(ServeEngineHooks, MatchingXGenerationSkipsUpload) {
  EngineOptions opts = serve::pinned_engine_options();
  opts.telemetry = true;
  SpmvEngine engine(small_matrix(64, 512, 8), opts);
  const std::vector<float> x = random_x(64, 40);
  std::vector<float> y;

  const auto upload_spans = [&] {
    int n = 0;
    for (const SpanRecord& s : engine.telemetry()->spans()) {
      n += s.name == "upload" ? 1 : 0;
    }
    return n;
  };
  (void)engine.multiply(x, y, /*x_generation=*/7);
  EXPECT_EQ(upload_spans(), 1);
  const std::vector<float> y1 = y;
  (void)engine.multiply(x, y, /*x_generation=*/7);  // cached: no upload span
  EXPECT_EQ(upload_spans(), 1);
  EXPECT_EQ(std::memcmp(y.data(), y1.data(), y.size() * sizeof(float)), 0);
  (void)engine.multiply(x, y, /*x_generation=*/8);  // new generation uploads
  EXPECT_EQ(upload_spans(), 2);
}

TEST(ServeEngineHooks, MatchingXGenerationWithNewXUploads) {
  // The tag is the caller's promise, not proof: a matching generation with
  // different contents must upload, or the multiply would use stale x.
  EngineOptions opts = serve::pinned_engine_options();
  opts.telemetry = true;
  SpmvEngine engine(small_matrix(64, 512, 8), opts);
  const std::vector<float> x1 = random_x(64, 41);
  const std::vector<float> x2 = random_x(64, 42);
  std::vector<float> y;
  std::vector<float> expect;
  (void)engine.multiply(x1, y, /*x_generation=*/7);
  (void)engine.multiply(x2, y, /*x_generation=*/7);
  int uploads = 0;
  for (const SpanRecord& s : engine.telemetry()->spans()) {
    uploads += s.name == "upload" ? 1 : 0;
  }
  EXPECT_EQ(uploads, 2);
  (void)engine.multiply(x2, expect);
  EXPECT_EQ(std::memcmp(y.data(), expect.data(), y.size() * sizeof(float)), 0);
}

TEST(ServeServer, ServersSharingARegistryNeverReuseAStaleX) {
  // Request ids restart at 0 in every server, so two servers on one
  // registry both tag their singleton multiply with generation 1. The
  // second server's request carries a different x and must get its own y.
  serve::MatrixRegistry reg;
  const serve::Handle h = reg.add("a", small_matrix(64, 512, 10));
  const auto serve_one = [&](const std::vector<float>& x) {
    serve::SpmvServer server(reg);
    serve::Request req;
    req.id = 0;
    req.handle = h;
    req.x = x;
    server.submit(std::move(req));
    return server.drain().results.at(0).y;
  };
  const std::vector<float> x1 = random_x(64, 60);
  const std::vector<float> x2 = random_x(64, 61);
  const std::vector<float> y1 = serve_one(x1);
  const std::vector<float> y2 = serve_one(x2);
  std::vector<float> expect1;
  std::vector<float> expect2;
  (void)reg.acquire(h).multiply(x1, expect1);
  (void)reg.acquire(h).multiply(x2, expect2);
  ASSERT_EQ(y2.size(), expect2.size());
  EXPECT_EQ(std::memcmp(y1.data(), expect1.data(), y1.size() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(y2.data(), expect2.data(), y2.size() * sizeof(float)), 0);
  EXPECT_NE(y1, y2);
}

TEST(ServeEngineHooks, BatchIdsNestLaunchesUnderBatchSpans) {
  EngineOptions opts = serve::pinned_engine_options();
  opts.telemetry = true;
  opts.method = kern::Method::CsrWarp16;  // base run_multi: one launch/column
  SpmvEngine engine(small_matrix(64, 512, 9), opts);
  std::vector<std::vector<float>> xs = {random_x(64, 50), random_x(64, 51),
                                        random_x(64, 52)};
  std::vector<std::vector<float>> ys;
  (void)engine.multiply_batch(xs, ys);

  const std::vector<SpanRecord>& spans = engine.telemetry()->spans();
  int multiply_batch_span = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "multiply_batch") {
      multiply_batch_span = static_cast<int>(i);
    }
  }
  ASSERT_GE(multiply_batch_span, 0);
  // Three per-column launches with distinct batch ids: each wrapped in a
  // "batch" span under the multiply_batch span, with its launch span
  // (named after the kernel) inside.
  std::vector<bool> is_batch_span(spans.size(), false);
  int batch_spans = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "batch") {
      continue;
    }
    ++batch_spans;
    is_batch_span[i] = true;
    EXPECT_EQ(spans[i].parent, multiply_batch_span);
  }
  EXPECT_EQ(batch_spans, 3);
  int launches_in_batches = 0;
  for (const SpanRecord& s : spans) {
    launches_in_batches +=
        s.parent >= 0 && is_batch_span[static_cast<std::size_t>(s.parent)] ? 1 : 0;
  }
  EXPECT_EQ(launches_in_batches, 3);
}

TEST(ServeEngineHooks, CsrAndBsrServeABatchInOneLaunch) {
  const mat::Csr a = small_matrix(64, 512, 9);
  const std::vector<std::vector<float>> xs = {random_x(64, 50), random_x(64, 51),
                                              random_x(64, 52)};
  const std::pair<kern::Method, const char*> cases[] = {
      {kern::Method::CusparseCsr, "csr_vector"}, {kern::Method::CusparseBsr, "bsrmv"}};
  for (const auto& [method, kernel_name] : cases) {
    SCOPED_TRACE(kernel_name);
    EngineOptions opts = serve::pinned_engine_options();
    opts.method = method;
    SpmvEngine sequential(a, opts);
    double sequential_seconds = 0;
    SpmvResult single;
    std::vector<float> y;
    for (const std::vector<float>& x : xs) {
      single = sequential.multiply(x, y);
      sequential_seconds += single.modeled_seconds;
    }

    opts.telemetry = true;
    SpmvEngine batched(a, opts);
    std::vector<std::vector<float>> ys;
    const SpmvResult batch = batched.multiply_batch(xs, ys);
    EXPECT_EQ(batch.stats.warps_launched, 3 * single.stats.warps_launched);
    EXPECT_LT(batch.modeled_seconds, sequential_seconds);

    // One batch id: the launch nests straight under the multiply_batch
    // span, with no per-column "batch" wrappers.
    const std::vector<SpanRecord>& spans = batched.telemetry()->spans();
    int batch_span = -1;
    int batch_spans = 0;
    int wrappers = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "multiply_batch") {
        batch_span = static_cast<int>(i);
        ++batch_spans;
      }
      wrappers += spans[i].name == "batch" ? 1 : 0;
    }
    EXPECT_EQ(batch_spans, 1);
    EXPECT_EQ(wrappers, 0);
    int launches = 0;
    for (const SpanRecord& s : spans) {
      if (s.name == kernel_name) {
        ++launches;
        EXPECT_EQ(s.parent, batch_span);
      }
    }
    EXPECT_EQ(launches, 1);
  }
}

}  // namespace
}  // namespace spaden
