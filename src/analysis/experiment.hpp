// Experiment drivers shared by the benchmark binaries.
//
// One MethodRun = prepare + verify + warm-up + timed multiply of one method
// on one matrix on one device, carrying everything the paper's figures
// report: modeled GFLOPS (Figs. 6-9), preprocessing time (Fig. 10a) and
// memory footprint (Fig. 10b). run_method caches nothing; callers loop over
// datasets/methods/devices.
#pragma once

#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "kernels/kernel.hpp"
#include "matrix/csr.hpp"
#include "matrix/dataset.hpp"

namespace spaden::analysis {

struct MethodRun {
  kern::Method method{};
  std::string device_name;
  std::string matrix_name;
  std::size_t nnz = 0;

  double gflops = 0;            ///< modeled, from the timed (warm) run
  double modeled_seconds = 0;
  sim::KernelStats stats;
  sim::TimeBreakdown time;

  // Host-side simulation cost of the timed run (NOT a modeled quantity):
  // how long the simulator itself took, for tracking the parallel
  // launcher's speedup. See SPADEN_SIM_THREADS.
  double host_seconds = 0;
  double host_warps_per_sec = 0;
  int sim_threads = 1;

  double prep_seconds = 0;      ///< measured host preprocessing
  double prep_ns_per_nnz = 0;
  std::size_t footprint_bytes = 0;
  double footprint_bytes_per_nnz = 0;

  double verify_max_err = 0;    ///< against fp64 reference (always checked)
};

/// Run one method on one matrix. Verifies correctness first (throws on
/// mismatch — no modeled number is ever reported for a wrong kernel), then
/// runs once to warm the modeled L2 and once timed.
MethodRun run_method(const sim::DeviceSpec& spec, kern::Method method, const mat::Csr& a,
                     const std::string& matrix_name);
/// The same on a caller-configured fresh device (thread count, scheduling
/// and L2 as the caller set them, not the SPADEN_SIM_* defaults).
MethodRun run_method(sim::Device& device, kern::Method method, const mat::Csr& a,
                     const std::string& matrix_name);

/// Geometric mean of a positive series (the paper's speedup aggregation).
double geomean(const std::vector<double>& values);

/// Speedup of `ours` over `baseline` per index, then geomean.
double geomean_speedup(const std::vector<double>& ours_gflops,
                       const std::vector<double>& baseline_gflops);

}  // namespace spaden::analysis
