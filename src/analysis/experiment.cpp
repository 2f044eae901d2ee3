#include "analysis/experiment.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace spaden::analysis {

MethodRun run_method(const sim::DeviceSpec& spec, kern::Method method, const mat::Csr& a,
                     const std::string& matrix_name) {
  sim::Device device(spec);
  // Figures run under the engine defaults (rr unless SPADEN_SIM_SCHED says
  // otherwise), so the headline numbers and the SpmvEngine agree.
  device.set_sched(sim::default_engine_sched());
  return run_method(device, method, a, matrix_name);
}

MethodRun run_method(sim::Device& device, kern::Method method, const mat::Csr& a,
                     const std::string& matrix_name) {
  auto kernel = kern::make_kernel(method);
  kernel->prepare(device, a);

  MethodRun run;
  run.method = method;
  run.device_name = device.spec().name;
  run.matrix_name = matrix_name;
  run.nnz = a.nnz();
  run.prep_seconds = kernel->prep_seconds();
  run.prep_ns_per_nnz =
      a.nnz() == 0 ? 0.0 : run.prep_seconds * 1e9 / static_cast<double>(a.nnz());
  const kern::Footprint fp = kernel->footprint();
  run.footprint_bytes = fp.total_bytes();
  run.footprint_bytes_per_nnz = fp.bytes_per_nnz(a.nnz());

  // Correctness gate (also serves as the L2 warm-up pass).
  run.verify_max_err = kern::verify_kernel(*kernel, device, a).max_abs_err;

  // Timed run with a fresh x (warm cache, like steady-state GFLOPS
  // measurements on real hardware).
  Rng rng(7);
  std::vector<float> x(a.ncols);
  for (auto& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  auto x_buf = device.memory().upload(x, "x");
  auto y_buf = device.memory().alloc<float>(a.nrows, "y");
  Timer host_timer;
  const sim::LaunchResult launch = kernel->run(device, x_buf.cspan(), y_buf.span());
  run.host_seconds = host_timer.seconds();
  run.sim_threads = device.sim_threads();
  run.host_warps_per_sec =
      run.host_seconds > 0
          ? static_cast<double>(launch.stats.warps_launched) / run.host_seconds
          : 0.0;

  run.gflops = launch.gflops(a.nnz());
  run.modeled_seconds = launch.seconds();
  run.stats = launch.stats;
  run.time = launch.time;
  return run;
}

double geomean(const std::vector<double>& values) {
  SPADEN_REQUIRE(!values.empty(), "geomean of empty series");
  double log_sum = 0;
  for (const double v : values) {
    SPADEN_REQUIRE(v > 0, "geomean requires positive values (got %g)", v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double geomean_speedup(const std::vector<double>& ours_gflops,
                       const std::vector<double>& baseline_gflops) {
  SPADEN_REQUIRE(ours_gflops.size() == baseline_gflops.size(), "series length mismatch");
  std::vector<double> ratios;
  ratios.reserve(ours_gflops.size());
  for (std::size_t i = 0; i < ours_gflops.size(); ++i) {
    ratios.push_back(ours_gflops[i] / baseline_gflops[i]);
  }
  return geomean(ratios);
}

}  // namespace spaden::analysis
