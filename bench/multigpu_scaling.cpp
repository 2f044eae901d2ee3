// Multi-device scaling curves for gpusim/multidevice (ROADMAP: production
// scale — multi-GPU execution).
//
// Strong scaling: every in-scope Table 1 matrix, row-sharded across N ∈
// {1, 2, 4} simulated L40s joined by nvlink-class links (the spec's
// defaults), for a method mix that spans the occupancy spectrum: the
// cuSPARSE CSR baseline, LightSpMV (warp-per-row), CSR-adaptive
// (launch-keyed warp weights), and Spaden (tensor-core, one warp per 32-row
// block — deliberately the hardest to strong-scale on small matrices).
// N = 1 runs through analysis::run_method, the same code path as
// fig6_performance, so the single-device rows stay the bit-for-bit anchor.
//
// Weak scaling: R-MAT graphs that double with the device count (scale
// exponent base, base+1, base+2 for N = 1, 2, 4), reporting how close the
// group stays to flat time as problem and machine grow together.
//
// Exports BENCH_multigpu.json with per-run t_comm inside the time breakdown
// and scalar metrics (geomean speedups, parallel efficiency, weak
// efficiency) that tools/perf_diff.py trends across commits.
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/sharded.hpp"
#include "matrix/generate.hpp"

namespace {

using namespace spaden;

constexpr int kDeviceCounts[] = {1, 2, 4};

const std::vector<kern::Method>& bench_methods() {
  static const std::vector<kern::Method> methods = {
      kern::Method::CusparseCsr,
      kern::Method::LightSpmv,
      kern::Method::CsrAdaptive,
      kern::Method::Spaden,
  };
  return methods;
}

/// SPADEN_BENCH_ONLY=cant,pwtk restricts the strong-scaling sweep to the
/// named datasets (CI smoke uses this to gate one matrix without paying for
/// the full suite). Unset = the whole in-scope Table 1 suite.
bool dataset_selected(const std::string& name) {
  const char* only = std::getenv("SPADEN_BENCH_ONLY");
  if (only == nullptr || *only == '\0') {
    return true;
  }
  const std::string list(only);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (list.compare(pos, comma - pos, name) == 0) {
      return true;
    }
    pos = comma + 1;
  }
  return false;
}

std::string group_device_name(const sim::DeviceSpec& spec, int n) {
  return n == 1 ? spec.name : spec.name + "x" + std::to_string(n);
}

/// Multi-device analogue of analysis::run_method: same warm-up/verify gate,
/// same timed-run protocol (fresh Rng(7) x against warm caches), run through
/// DeviceGroup + ShardedSpmv. N = 1 delegates to run_method itself.
analysis::MethodRun run_method_multi(const sim::DeviceSpec& spec, kern::Method method,
                                     const mat::Csr& a, const std::string& matrix_name,
                                     int num_devices) {
  if (num_devices == 1) {
    return analysis::run_method(spec, method, a, matrix_name);
  }
  sim::DeviceGroup group(spec, num_devices);
  const sim::SchedConfig sched = sim::default_engine_sched();
  group.set_sched(sched);
  group.set_shared_l2(sim::engine_shared_l2(sched));
  kern::ShardedSpmv sharded(group, method);

  analysis::MethodRun run;
  run.method = method;
  run.device_name = group_device_name(spec, num_devices);
  run.matrix_name = matrix_name;
  run.nnz = a.nnz();

  Timer prep_timer;
  sharded.prepare(a);
  run.prep_seconds = prep_timer.seconds();
  run.prep_ns_per_nnz =
      a.nnz() == 0 ? 0.0 : run.prep_seconds * 1e9 / static_cast<double>(a.nnz());
  const kern::Footprint fp = sharded.footprint();
  run.footprint_bytes = fp.total_bytes();
  run.footprint_bytes_per_nnz = fp.bytes_per_nnz(a.nnz());

  // Correctness gate (also the L2 warm-up pass), per shard against the fp64
  // reference of its sub-matrix.
  run.verify_max_err = sharded.verify().max_abs_err;

  Rng rng(7);
  std::vector<float> x(a.ncols);
  for (auto& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  std::vector<std::vector<float>> ys;
  Timer host_timer;
  sharded.upload({&x});
  const kern::GroupResult launch = sharded.launch(1);
  sharded.download(ys);
  run.host_seconds = host_timer.seconds();
  run.sim_threads = group.device(0).sim_threads();
  run.host_warps_per_sec =
      run.host_seconds > 0
          ? static_cast<double>(launch.stats.warps_launched) / run.host_seconds
          : 0.0;
  run.gflops = launch.gflops(a.nnz());
  run.modeled_seconds = launch.modeled_seconds;
  run.stats = launch.stats;
  run.time = launch.time;
  return run;
}

int weak_base_exponent(double scale) {
  // Full size (scale 1.0) starts at 2^17 vertices; smaller bench scales
  // shrink the base graph proportionally, min 2^12 so R-MAT stays nontrivial.
  const int base = 17 + static_cast<int>(std::lround(std::log2(scale)));
  return std::max(base, 12);
}

}  // namespace

int main() {
  const double scale = mat::bench_scale();
  bench::print_banner("multigpu_scaling: strong + weak scaling across simulated devices",
                      scale);
  const sim::DeviceSpec spec = sim::l40();
  std::printf("link preset nvlink: latency %.1f us, %.0f GB/s per direction, %d links/device\n\n",
              spec.link_latency_us, spec.link_bandwidth_gbps, spec.links_per_device);

  bench::BenchJson json("multigpu", scale);
  Table table({"Matrix", "Method", "GFLOP/s x1", "x2", "x4", "speedup@2", "speedup@4",
               "t_comm@4"});

  std::vector<double> speedups2;
  std::vector<double> speedups4;
  for (const auto& info : mat::in_scope_datasets()) {
    if (!dataset_selected(info.name())) {
      continue;
    }
    const mat::Csr a = bench::load_with_progress(info, scale);
    for (const kern::Method method : bench_methods()) {
      double gflops[3] = {0, 0, 0};
      double t_comm4 = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        const int n = kDeviceCounts[i];
        std::fprintf(stderr, "[run] %-14s %-12s x%d...\n",
                     std::string(kern::method_name(method)).c_str(), info.name().c_str(),
                     n);
        const analysis::MethodRun run =
            run_method_multi(spec, method, a, info.name(), n);
        gflops[i] = run.gflops;
        if (n == 4) {
          t_comm4 = run.time.t_comm;
        }
        json.add(run);
      }
      const double s2 = gflops[1] / gflops[0];
      const double s4 = gflops[2] / gflops[0];
      speedups2.push_back(s2);
      speedups4.push_back(s4);
      table.add_row({info.name(), std::string(kern::method_name(method)),
                     fmt_double(gflops[0], 1), fmt_double(gflops[1], 1),
                     fmt_double(gflops[2], 1), fmt_double(s2, 2) + "x",
                     fmt_double(s4, 2) + "x", fmt_double(t_comm4 * 1e6, 3) + " us"});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);

  const double geo2 = analysis::geomean(speedups2);
  const double geo4 = analysis::geomean(speedups4);
  std::printf("\nstrong scaling geomean: %.2fx @2 devices (efficiency %.0f%%), "
              "%.2fx @4 devices (efficiency %.0f%%)\n",
              geo2, 100.0 * geo2 / 2.0, geo4, 100.0 * geo4 / 4.0);
  json.add_metric("geomean_speedup@2", geo2);
  json.add_metric("geomean_speedup@4", geo4);
  json.add_metric("parallel_efficiency@2", geo2 / 2.0);
  json.add_metric("parallel_efficiency@4", geo4 / 4.0);

  // Weak scaling: problem doubles with the device count. Efficiency is
  // T(x1) / T(xN) on the N-times-larger graph (1.0 = perfectly flat).
  const int base = weak_base_exponent(scale);
  Table weak({"Graph", "Devices", "nnz", "modeled us", "weak efficiency"});
  double t1 = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const int n = kDeviceCounts[i];
    const unsigned exp = static_cast<unsigned>(base) + static_cast<unsigned>(i);
    const std::string name = strfmt("rmat%u", exp);
    std::fprintf(stderr, "[gen] %s (2^%u vertices, R-MAT)...\n", name.c_str(), exp);
    const mat::Csr a = mat::Csr::from_coo(mat::rmat(exp, 16.0, /*seed=*/exp));
    const analysis::MethodRun run =
        run_method_multi(spec, kern::Method::CusparseCsr, a, name, n);
    json.add(run);
    if (n == 1) {
      t1 = run.modeled_seconds;
    }
    const double eff = run.modeled_seconds > 0 ? t1 / run.modeled_seconds : 0.0;
    weak.add_row({name, strfmt("x%d", n), std::to_string(a.nnz()),
                  fmt_double(run.modeled_seconds * 1e6, 2), fmt_double(eff, 2)});
    if (n > 1) {
      json.add_metric(strfmt("weak_efficiency@%d", n), eff);
    }
  }
  std::printf("\n");
  std::fputs(weak.to_string().c_str(), stdout);

  json.write();
  return 0;
}
