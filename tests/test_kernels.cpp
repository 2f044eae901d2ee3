// Correctness of every SpMV kernel against the fp64 host reference, across
// matrix structures (random, banded, power-law, dataset profiles, edge
// cases) and both device presets. This is the gate the paper's evaluation
// implicitly relies on: a kernel's GFLOPS only counts if its y is right.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <atomic>
#include <cctype>
#include <cstring>
#include <utility>

#include "kernels/internal.hpp"
#include "kernels/kernel.hpp"
#include "kernels/segments.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

struct Case {
  const char* name;
  mat::Csr matrix;
};

mat::Csr empty_rows_matrix() {
  mat::Coo coo;
  coo.nrows = 200;
  coo.ncols = 200;
  // Only every 7th row populated.
  for (mat::Index r = 0; r < 200; r += 7) {
    for (mat::Index c = 0; c < 5; ++c) {
      coo.row.push_back(r);
      coo.col.push_back((r * 13 + c * 41) % 200);
      coo.val.push_back(0.25f + static_cast<float>(c));
    }
  }
  return mat::Csr::from_coo(coo);
}

mat::Csr single_entry_matrix() {
  mat::Coo coo;
  coo.nrows = 33;
  coo.ncols = 33;
  coo.row = {17};
  coo.col = {5};
  coo.val = {0.5f};
  return mat::Csr::from_coo(coo);
}

mat::Csr wide_row_matrix() {
  // One long row (stress for vector kernels and DASP's long-row handling).
  mat::Coo coo;
  coo.nrows = 64;
  coo.ncols = 2048;
  for (mat::Index c = 0; c < 2048; c += 2) {
    coo.row.push_back(3);
    coo.col.push_back(c);
    coo.val.push_back(0.125f);
  }
  coo.row.push_back(10);
  coo.col.push_back(7);
  coo.val.push_back(1.0f);
  return mat::Csr::from_coo(coo);
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = [] {
    std::vector<Case> c;
    c.push_back({"random_mid", mat::Csr::from_coo(mat::random_uniform(500, 500, 12000, 1))});
    c.push_back({"random_sparse", mat::Csr::from_coo(mat::random_uniform(800, 800, 2000, 2))});
    c.push_back({"rectangular", mat::Csr::from_coo(mat::random_uniform(300, 700, 5000, 3))});
    c.push_back({"banded", mat::Csr::from_coo(mat::banded(600, 9, 0.6, 4))});
    c.push_back({"powerlaw", mat::Csr::from_coo(mat::rmat(9, 12.0, 5))});
    c.push_back({"dataset_cant", mat::load_dataset("cant", 0.02)});
    c.push_back({"dataset_dense_blocks", mat::load_dataset("raefsky3", 0.05)});
    c.push_back({"empty_rows", empty_rows_matrix()});
    c.push_back({"single_entry", single_entry_matrix()});
    c.push_back({"wide_row", wide_row_matrix()});
    // 6 block-row pairs of about 64 iterations: the Spaden family's
    // segment plan cuts every pair.
    c.push_back({"long_pairs", mat::Csr::from_coo(mat::random_uniform(96, 1024, 15360, 14))});
    return c;
  }();
  return kCases;
}

class KernelCorrectness
    : public ::testing::TestWithParam<std::tuple<Method, std::size_t, const char*>> {};

TEST_P(KernelCorrectness, MatchesFp64Reference) {
  const auto [method, case_idx, device_name] = GetParam();
  const Case& c = cases()[case_idx];
  sim::Device device(sim::device_by_name(device_name));
  auto kernel = make_kernel(method);
  kernel->prepare(device, c.matrix);
  // verify_kernel throws on out-of-tolerance output.
  const VerifyResult r = verify_kernel(*kernel, device, c.matrix);
  EXPECT_TRUE(r.ok()) << c.name << ": err " << r.max_abs_err << " > " << r.tolerance;
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Method, std::size_t, const char*>>& info) {
  std::string m(method_name(std::get<0>(info.param)));
  for (char& ch : m) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return m + "_" + std::string(cases()[std::get<1>(info.param)].name) + "_" +
         std::get<2>(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAllCases, KernelCorrectness,
    ::testing::Combine(::testing::ValuesIn(all_methods()),
                       ::testing::Range<std::size_t>(0, cases().size()),
                       ::testing::Values("l40", "v100")),
    param_name);

TEST(Kernels, RepeatedRunsAreIdempotent) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(200, 200, 4000, 9));
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols, 0.5f);
  auto xb = device.memory().upload(x);
  auto y1 = device.memory().alloc<float>(a.nrows);
  auto y2 = device.memory().alloc<float>(a.nrows);
  (void)kernel->run(device, xb.cspan(), y1.span());
  (void)kernel->run(device, xb.cspan(), y2.span());
  EXPECT_EQ(y1.host(), y2.host());
}

TEST(Kernels, RunRejectsWrongVectorSizes) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 500, 10));
  sim::Device device(sim::l40());
  for (const Method m : all_methods()) {
    auto kernel = make_kernel(m);
    kernel->prepare(device, a);
    auto bad_x = device.memory().alloc<float>(63);
    auto y = device.memory().alloc<float>(64);
    EXPECT_THROW((void)kernel->run(device, bad_x.cspan(), y.span()), spaden::Error)
        << method_name(m);
  }
}

TEST(Kernels, RunMultiAtOneColumnIsRun) {
  // run_multi(k=1) is the same launch as run(): same y bytes, counters and
  // modeled breakdown. Spaden is the exception on purpose: its batch path
  // is the strided tensor-core SpMM, a different kernel. Each side runs on
  // its own fresh single-threaded device, so both launches see the same
  // cold caches and atomic kernels (Gunrock) add in one fixed order.
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(300, 300, 4000, 12));
  std::vector<float> x(a.ncols);
  for (mat::Index c = 0; c < a.ncols; ++c) {
    x[c] = static_cast<float>(c % 7) * 0.25f - 0.75f;
  }
  for (const Method m : all_methods()) {
    if (m == Method::Spaden) {
      continue;
    }
    const auto launch = [&](bool multi) {
      sim::Device device(sim::l40());
      device.set_sim_threads(1);
      auto kernel = make_kernel(m);
      kernel->prepare(device, a);
      XBatch xb;
      xb.k = 1;
      xb.f32 = device.memory().upload(x);
      auto yb = device.memory().alloc<float>(a.nrows);
      const sim::LaunchResult r = multi ? kernel->run_multi(device, xb, yb.span())
                                        : kernel->run(device, xb.f32.cspan(), yb.span());
      return std::make_pair(r, yb.host());
    };
    const auto [single, y_single] = launch(false);
    const auto [multi, y_multi] = launch(true);
    ASSERT_EQ(y_multi.size(), y_single.size());
    EXPECT_EQ(std::memcmp(y_multi.data(), y_single.data(), y_single.size() * sizeof(float)), 0)
        << method_name(m);
    EXPECT_EQ(multi.kernel_name, single.kernel_name) << method_name(m);
    EXPECT_EQ(multi.stats, single.stats) << method_name(m);
    EXPECT_EQ(std::memcmp(&multi.time, &single.time, sizeof(sim::TimeBreakdown)), 0)
        << method_name(m);
  }
}

TEST(Kernels, PrepValidatesInput) {
  mat::Csr broken = mat::Csr::from_coo(mat::random_uniform(16, 16, 30, 11));
  broken.col_idx[0] = 999;
  sim::Device device(sim::l40());
  auto kernel = make_kernel(Method::CusparseCsr);
  EXPECT_THROW(kernel->prepare(device, broken), spaden::Error);
}

TEST(Kernels, FootprintOrderingMatchesFigure10b) {
  // Paper Fig. 10b: Spaden has the smallest footprint; BSR and DASP the
  // largest. Check on a representative mid-fill matrix.
  const mat::Csr a = mat::load_dataset("cant", 0.05);
  sim::Device device(sim::l40());
  auto bytes_per_nnz = [&](Method m) {
    auto kernel = make_kernel(m);
    kernel->prepare(device, a);
    return kernel->footprint().bytes_per_nnz(a.nnz());
  };
  const double spaden = bytes_per_nnz(Method::Spaden);
  const double csr = bytes_per_nnz(Method::CusparseCsr);
  const double bsr = bytes_per_nnz(Method::CusparseBsr);
  const double dasp = bytes_per_nnz(Method::Dasp);
  EXPECT_LT(spaden, csr);
  EXPECT_LT(csr, bsr);
  EXPECT_LT(spaden, dasp);
  // Paper's absolute scale: Spaden ~2.85 B/nnz, CSR ~8 B/nnz.
  EXPECT_NEAR(spaden, 2.85, 1.0);
  EXPECT_NEAR(csr, 8.06, 1.0);
}

TEST(Kernels, MethodNamesAndRegistry) {
  EXPECT_EQ(method_name(Method::Spaden), "Spaden");
  EXPECT_EQ(method_name(Method::CusparseCsr), "cuSPARSE CSR");
  EXPECT_EQ(all_methods().size(), 12u);
  EXPECT_EQ(figure6_methods().size(), 6u);
  for (const Method m : all_methods()) {
    EXPECT_EQ(make_kernel(m)->method(), m);
  }
}

TEST(Kernels, ChooseVectorWidthHeuristic) {
  EXPECT_EQ(choose_vector_width(1.0), 2u);
  EXPECT_EQ(choose_vector_width(3.0), 4u);
  EXPECT_EQ(choose_vector_width(17.0), 32u);
  EXPECT_EQ(choose_vector_width(1000.0), 32u);
}

TEST(Kernels, TensorCoreMethodsActuallyUseTensorCores) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  sim::Device device(sim::l40());
  for (const Method m : all_methods()) {
    auto kernel = make_kernel(m);
    kernel->prepare(device, a);
    std::vector<float> x(a.ncols, 1.0f);
    auto xb = device.memory().upload(x);
    auto y = device.memory().alloc<float>(a.nrows);
    const auto result = kernel->run(device, xb.cspan(), y.span());
    const bool uses_tc =
        result.stats.tc_mma_m16n16k16 > 0 || result.stats.tc_mma_m8n8k4 > 0;
    const bool should = m == Method::Spaden || m == Method::Dasp ||
                        m == Method::SpadenConventional || m == Method::SpadenUnpaired ||
                        m == Method::SpadenWide;
    EXPECT_EQ(uses_tc, should) << method_name(m);
  }
}

// ---- the segment hand-off --------------------------------------------------

/// Runs one unit cut into 4 segments through SegmentHandOff: warp w
/// publishes partial[w] for two rows, preceded by `busy[w]` loads, so under
/// the interleaving scheduler the busiest warp draws the last ticket. With
/// `plain_publish` the partials go out as plain stores instead.
struct HandOffRun {
  std::vector<float> y;
  int last_warp = -1;
  sim::SanitizerReport sanitizer;
  std::vector<float> scratch;
  std::vector<std::uint32_t> tickets;
};

HandOffRun run_hand_off(const sim::SchedConfig& sched, int threads, int busy_warp,
                        bool plain_publish) {
  constexpr std::uint16_t kSegments = 4;
  // Added in any order but segment order these round differently.
  constexpr float kPartials[kSegments] = {1e8f, 1.0f, -1e8f, 1.0f};
  sim::Device device(sim::l40());
  device.set_sim_threads(threads);
  device.set_sched(sched);
  device.set_sanitize(true);
  auto scratch = device.memory().alloc<float>(2 * kSegments, "segment.scratch");
  auto tickets = device.memory().alloc<std::uint32_t>(1, "segment.tickets");
  auto filler = device.memory().alloc<float>(sim::kWarpSize, "filler");
  auto y = device.memory().alloc<float>(2, "y");
  device.set_launch_warp_ties("hand_off", {0, 1, 1, 1});
  std::atomic<int> last_warp{-1};
  HandOffRun run;
  run.sanitizer = device
                      .launch("hand_off", kSegments,
                              [&](sim::WarpCtx& ctx, std::uint64_t w) {
                                Segment seg;
                                seg.index = static_cast<std::uint16_t>(w);
                                seg.count = kSegments;
                                const int loads = static_cast<int>(w) == busy_warp ? 16 : 1;
                                for (int i = 0; i < loads; ++i) {
                                  (void)ctx.gather(filler.cspan(), sim::lane_ids());
                                }
                                const SegmentHandOff hand_off(seg, scratch.span(), 2,
                                                              tickets.span(), 0);
                                RowPartials p;
                                p.mask = 0x3u;
                                p.entry[1] = 1;
                                p.value[0] = kPartials[w];
                                p.value[1] = -kPartials[w];
                                if (plain_publish) {
                                  sim::Lanes<std::uint32_t> idx{};
                                  idx[0] = 2 * static_cast<std::uint32_t>(w);
                                  idx[1] = idx[0] + 1;
                                  ctx.scatter(scratch.span(), idx, p.value, p.mask);
                                } else {
                                  hand_off.publish(ctx, p);
                                }
                                if (!hand_off.last(ctx)) {
                                  return;
                                }
                                last_warp = static_cast<int>(w);
                                hand_off.combine(ctx, p);
                                hand_off.finish(ctx);
                                ctx.scatter(y.span(), sim::lane_ids(), p.value, p.mask);
                              })
                      .sanitizer;
  run.y = y.host();
  run.last_warp = last_warp;
  run.scratch = scratch.host();
  run.tickets = tickets.host();
  return run;
}

TEST(SegmentHandOff, CleanWhicheverWarpDrawsTheLastTicket) {
  const sim::SchedConfig serial{sim::SchedPolicy::Serial, 0};
  const sim::SchedConfig rr{sim::SchedPolicy::RoundRobin, 8};
  for (int busy = 0; busy < 4; ++busy) {
    for (const auto& [sched, threads] :
         {std::pair{serial, 1}, std::pair{rr, 1}, std::pair{rr, 4}}) {
      SCOPED_TRACE(testing::Message() << sim::sched_policy_name(sched.policy) << " T="
                                      << threads << " busy warp " << busy);
      const HandOffRun run = run_hand_off(sched, threads, busy, /*plain_publish=*/false);
      // Serial runs warps in id order; interleaved, the busy warp arrives
      // last.
      EXPECT_EQ(run.last_warp, sched.policy == sim::SchedPolicy::Serial ? 3 : busy);
      EXPECT_TRUE(run.sanitizer.clean()) << run.sanitizer.summary();
      // Segment order: ((1e8 + 1) - 1e8) + 1 == 1 in float, whoever sums.
      EXPECT_EQ(run.y, (std::vector<float>{1.0f, -1.0f}));
      // The read-back leaves the scratch and the ticket zero.
      EXPECT_EQ(run.scratch, std::vector<float>(8, 0.0f));
      EXPECT_EQ(run.tickets, std::vector<std::uint32_t>{0});
    }
  }
}

TEST(SegmentHandOff, PlainPublishIsAnInterWarpRace) {
  // Why every scratch access is atomic: when a lower warp draws the last
  // ticket, racecheck's warp-major replay puts its read-back before the
  // higher warps' plain publishes, which no release/acquire edge orders.
  const HandOffRun run =
      run_hand_off(sim::SchedConfig{sim::SchedPolicy::RoundRobin, 8}, 1, 0, true);
  ASSERT_EQ(run.last_warp, 0);
  EXPECT_GE(run.sanitizer.count(sim::SanKind::InterWarpRace), 1u) << run.sanitizer.summary();
  EXPECT_NE(run.sanitizer.summary().find("racecheck.inter-warp"), std::string::npos);
}

}  // namespace
}  // namespace spaden::kern
