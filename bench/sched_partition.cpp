// Warp->SM partition study: contiguous equal-count chunks vs the
// nnz-balanced split (Device::set_warp_weights).
//
// A power-law matrix concentrates nnz in a few rows, so equal *warp* counts
// give very unequal *work* per virtual SM; the slowest SM sets the modeled
// time. The nnz-balanced split cuts the same contiguous grid where the
// per-warp nnz prefix sum crosses equal shares instead. spaden-prof's
// per-SM section measures the result: sm_imbalance (max/mean of per-SM
// seconds) should drop toward 1.0 while numerics stay bit-identical. Each
// split also dumps its chrome://tracing timeline next to the BENCH json so
// the imbalance is visible as ragged SM lanes.
//
// Uses CSR Warp16 (16 rows per warp, the same row granularity as Spaden),
// whose warp->row mapping is static: warp w covers rows [16w, 16w+16).
// The kernel derives its own per-warp nnz weights in do_prepare (the
// engine-policy promotion of what used to be a local helper here); the
// equal-count run clears them after prepare, which is how a caller selects
// that split.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "kernels/kernel.hpp"
#include "matrix/generate.hpp"

namespace spaden {
namespace {

constexpr int kSimThreads = 4;

struct PartitionResult {
  double imbalance = 0;
  double modeled_seconds = 0;
  std::vector<float> y;
};

PartitionResult run_partition(const mat::Csr& a, bool balanced) {
  const char* partition_name = balanced ? "nnz-balanced" : "contiguous";
  sim::Device device(sim::l40());
  device.set_sim_threads(kSimThreads);
  device.set_profile(true);
  auto kernel = kern::make_kernel(kern::Method::CsrWarp16);
  kernel->prepare(device, a);  // installs the per-warp nnz weights
  if (!balanced) {
    device.set_warp_weights({});  // no weights: the equal-count split
    device.clear_launch_warp_weights();
  }
  std::vector<float> x(a.ncols, 1.0f);
  auto xb = device.memory().upload(x);
  auto yb = device.memory().alloc<float>(a.nrows);
  const sim::LaunchResult launch = kernel->run(device, xb.cspan(), yb.span());

  PartitionResult result;
  result.modeled_seconds = launch.seconds();
  result.y = yb.host();
  const sim::ProfileReport& report = device.profile_log().back();
  result.imbalance = report.sm_imbalance();
  std::printf("  %-13s sm_imbalance %.3f, modeled %.2f us; per-SM warps/seconds:\n",
              partition_name, result.imbalance, result.modeled_seconds * 1e6);
  for (const sim::SmProfile& sm : report.sms) {
    std::printf("    SM %d: %6llu warps  %.2f us\n", sm.sm,
                static_cast<unsigned long long>(sm.warps), sm.seconds() * 1e6);
  }

  // One timeline per split, next to the BENCH json: open both traces in
  // chrome://tracing and the equal-count split's ragged lanes are obvious.
  const std::string trace_path =
      bench::output_dir() + "/TRACE_sched_partition_" + partition_name + ".json";
  write_text_file(trace_path, sim::chrome_trace_json(device.profile_log()));
  std::printf("    wrote %s\n", trace_path.c_str());
  return result;
}

int run() {
  const double scale = mat::bench_scale();
  bench::print_banner("sched_partition: contiguous vs nnz-balanced warp->SM split", scale);
  bench::BenchJson json("sched_partition", scale);

  // R-MAT power-law graph: a few dense hub rows, a long sparse tail — the
  // shape that punishes the equal-count split.
  const auto rmat_scale = static_cast<unsigned>(13 + (scale >= 0.5 ? 1 : 0));
  const mat::Csr a = mat::Csr::from_coo(mat::rmat(rmat_scale, 16.0, 42));
  std::printf("R-MAT 2^%u: %u x %u, %zu nnz (%.1f per row), %d virtual SMs\n\n",
              rmat_scale, a.nrows, a.ncols, a.nnz(), a.avg_degree(), kSimThreads);

  const PartitionResult contiguous = run_partition(a, /*balanced=*/false);
  const PartitionResult balanced = run_partition(a, /*balanced=*/true);

  SPADEN_REQUIRE(contiguous.y == balanced.y,
                 "partition changed numerics: the split must only move warp "
                 "boundaries, never results");
  SPADEN_REQUIRE(balanced.imbalance <= 1.2,
                 "nnz-balanced partition left max/mean imbalance %.3f > 1.2 on the "
                 "R-MAT input",
                 balanced.imbalance);
  std::printf(
      "\nnnz-balanced vs contiguous: imbalance %.3f -> %.3f, modeled time %+.1f%%; "
      "y bit-identical\n",
      contiguous.imbalance, balanced.imbalance,
      100.0 * (balanced.modeled_seconds / contiguous.modeled_seconds - 1.0));

  json.add_metric("sm_imbalance_contiguous", contiguous.imbalance);
  json.add_metric("sm_imbalance_nnz_balanced", balanced.imbalance);
  json.add_metric("modeled_seconds_contiguous", contiguous.modeled_seconds);
  json.add_metric("modeled_seconds_nnz_balanced", balanced.modeled_seconds);
  json.write();
  return 0;
}

}  // namespace
}  // namespace spaden

int main() { return spaden::run(); }
