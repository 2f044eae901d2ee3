#include "analysis/recommend.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/experiment.hpp"
#include "common/error.hpp"
#include "core/spaden.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/bsr.hpp"

namespace spaden::analysis {

namespace {

double per_nnz(std::size_t bytes, std::size_t nnz) {
  return nnz == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(nnz);
}

}  // namespace

Recommendation recommend(const mat::Csr& a, const sim::DeviceSpec& device,
                         bool benchmark_methods) {
  SPADEN_REQUIRE(a.nnz() > 0, "cannot recommend a format for an empty matrix");
  Recommendation rec;
  const std::size_t nnz = a.nnz();

  // --- storage assessments -----------------------------------------------
  rec.formats.push_back(
      {"CSR", per_nnz(a.row_ptr.size() * 4 + nnz * 8, nnz), true, "the safe default"});

  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  {
    const double fill =
        static_cast<double>(nnz) / (static_cast<double>(bb.bnnz()) * 64.0);
    rec.formats.push_back(
        {"BSR 8x8",
         per_nnz(bb.bnnz() * 256 + bb.bnnz() * 4 + bb.block_row_ptr.size() * 4, nnz),
         fill > 0.5, strfmt("block fill %.0f%%", 100.0 * fill)});
    rec.formats.push_back({"bitBSR", per_nnz(bb.footprint_bytes(), nnz), true,
                           strfmt("half values; %.1f nnz/block",
                                  static_cast<double>(nnz) /
                                      static_cast<double>(bb.bnnz()))});
  }
  std::stable_sort(rec.formats.begin(), rec.formats.end(),
                   [](const FormatAssessment& l, const FormatAssessment& r) {
                     if (l.suitable != r.suitable) {
                       return l.suitable;
                     }
                     return l.bytes_per_nnz < r.bytes_per_nnz;
                   });

  // --- method assessments --------------------------------------------------
  rec.heuristic_method = SpmvEngine::auto_select(a);
  rec.best_method = rec.heuristic_method;
  if (benchmark_methods) {
    for (const kern::Method m :
         {kern::Method::CusparseCsr, kern::Method::CusparseBsr, kern::Method::Spaden}) {
      // One simulator thread, rr and the shared L2 (the configuration serve
      // pins), so the ranking is the same whatever SPADEN_SIM_* says.
      sim::Device dev(device);
      dev.set_sim_threads(1);
      dev.set_sched(sim::SchedConfig{sim::SchedPolicy::RoundRobin, 0});
      dev.set_shared_l2(true);
      const MethodRun run = run_method(dev, m, a, "recommend");
      rec.methods.push_back({m, run.gflops});
    }
    std::stable_sort(rec.methods.begin(), rec.methods.end(),
                     [](const MethodAssessment& l, const MethodAssessment& r) {
                       return l.modeled_gflops > r.modeled_gflops;
                     });
    rec.best_method = rec.methods.front().method;
  }
  return rec;
}

std::string Recommendation::summary() const {
  std::ostringstream os;
  os << "storage (ascending bytes/nnz):\n";
  for (const auto& f : formats) {
    os << strfmt("  %-8s %6.2f B/nnz  %s%s\n", f.format.c_str(), f.bytes_per_nnz,
                 f.suitable ? "" : "[unsuitable] ", f.note.c_str());
  }
  if (!methods.empty()) {
    os << "modeled SpMV (descending GFLOPS):\n";
    for (const auto& m : methods) {
      os << strfmt("  %-14s %8.1f GFLOP/s\n",
                   std::string(kern::method_name(m.method)).c_str(), m.modeled_gflops);
    }
  }
  os << "recommended method: " << std::string(kern::method_name(best_method))
     << " (paper heuristic: " << std::string(kern::method_name(heuristic_method)) << ")\n";
  return os.str();
}

}  // namespace spaden::analysis
