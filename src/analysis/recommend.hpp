// Format recommendation — the "sparse math library centered around the
// bitmap & blocking" direction of the paper's conclusion, distilled into an
// analysis pass.
//
// Given a matrix, computes the storage cost and a structural suitability
// verdict (block fill for BSR) of each format the engine can serve — CSR,
// BSR 8x8 and bitBSR — and ranks the SpMV methods over them by modeled
// throughput on a chosen device.
#pragma once

#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "kernels/kernel.hpp"
#include "matrix/csr.hpp"

namespace spaden::analysis {

struct FormatAssessment {
  std::string format;        ///< "CSR", "BSR 8x8", "bitBSR"
  double bytes_per_nnz = 0;  ///< storage cost
  bool suitable = true;      ///< structural fit (BSR needs >50% block fill)
  std::string note;          ///< one-line rationale
};

struct MethodAssessment {
  kern::Method method{};
  double modeled_gflops = 0;
};

struct Recommendation {
  std::vector<FormatAssessment> formats;    ///< all formats, by ascending cost
  std::vector<MethodAssessment> methods;    ///< SpMV methods, by descending GFLOPS
  kern::Method best_method{};
  kern::Method heuristic_method{};          ///< the paper's §5.1 rule (no benchmarking)

  [[nodiscard]] std::string summary() const;
};

/// Analyze storage costs and (optionally) benchmark the SpMV methods on the
/// simulated device. With benchmark_methods = false only the storage table
/// and the §5.1 heuristic are produced (cheap).
Recommendation recommend(const mat::Csr& a, const sim::DeviceSpec& device = sim::l40(),
                         bool benchmark_methods = true);

}  // namespace spaden::analysis
