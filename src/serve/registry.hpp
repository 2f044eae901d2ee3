// spaden-serve matrix registry: prepared-format cache behind stable handles.
//
// A serving fleet multiplies against a small working set of matrices over
// and over; converting CSR -> bitBSR per request would dwarf the multiply
// (paper §5.5 amortizes conversion over reuse). The registry does the
// conversion exactly once per matrix: add() registers a matrix under a
// handle and runs analysis/recommend to pick the serving method (the §5.1
// heuristic by default, full benchmarking opt-in); acquire() lazily
// constructs the SpmvEngine — which converts, uploads, and runs the
// spaden-verify format gate — and caches it device-resident. Prepared
// footprints are charged against a configurable device-memory budget with
// LRU eviction; a matrix larger than the whole budget is still served (it
// just evicts everything else).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/spaden.hpp"

namespace spaden::serve {

/// Stable matrix identifier handed out by MatrixRegistry::add (1-based;
/// 0 is never a valid handle).
using Handle = std::uint32_t;

/// Engine options pinned for serving: the serve subsystem's determinism
/// contract requires byte-identical reports regardless of the ambient
/// simulator configuration, so these options deliberately IGNORE
/// SPADEN_SIM_THREADS / SPADEN_SIM_SCHED / SPADEN_SANCHECK. Simulation
/// runs on one device (unprofiled) and SPADEN_SERVE_SIM_THREADS host
/// threads (default 1) with the round-robin scheduler. Modeled times then
/// repeat byte-for-byte at a fixed SPADEN_SERVE_SIM_THREADS, except for
/// kernels whose work split or float-add order follows host threads at
/// T > 1 (LightSpMV's row claiming, Gunrock's float atomics). Telemetry
/// keeps its SPADEN_TELEMETRY default.
[[nodiscard]] EngineOptions pinned_engine_options(const sim::DeviceSpec& device = sim::l40());

/// SPADEN_SERVE_SIM_THREADS: host threads for serve-owned engines
/// (default 1).
[[nodiscard]] int default_serve_sim_threads();

struct RegistryConfig {
  /// Device-memory budget for prepared formats.
  std::size_t budget_bytes = std::size_t{512} * 1024 * 1024;
  /// Template for every engine the registry constructs (method is replaced
  /// by the per-matrix recommendation).
  EngineOptions engine = pinned_engine_options();
  /// Run analysis/recommend with full method benchmarking at add() time
  /// (expensive: simulates every method). Off, the §5.1 heuristic decides.
  bool benchmark_recommend = false;
};

struct RegistryStats {
  std::uint64_t prepares = 0;   ///< engines constructed (conversion ran)
  std::uint64_t hits = 0;       ///< acquire() found the engine resident
  std::uint64_t evictions = 0;  ///< engines dropped for the budget
  std::size_t resident_bytes = 0;
};

class MatrixRegistry {
 public:
  explicit MatrixRegistry(RegistryConfig config = {});
  ~MatrixRegistry();
  MatrixRegistry(const MatrixRegistry&) = delete;
  MatrixRegistry& operator=(const MatrixRegistry&) = delete;

  /// Register a matrix. Picks the serving method via analysis/recommend
  /// (cheap heuristic unless benchmark_recommend) but converts nothing yet.
  Handle add(std::string name, mat::Csr a);

  /// The prepared engine for `h`, converting + uploading on a miss and
  /// LRU-evicting other entries until the budget holds. The reference stays
  /// valid until the entry is evicted (i.e. until a later acquire of a
  /// different handle needs the space).
  [[nodiscard]] SpmvEngine& acquire(Handle h);

  /// Whether `h` currently has a prepared device-resident engine.
  [[nodiscard]] bool resident(Handle h) const;

  [[nodiscard]] kern::Method method_of(Handle h) const;
  [[nodiscard]] const std::string& name_of(Handle h) const;
  [[nodiscard]] const mat::Csr& matrix_of(Handle h) const;
  /// Prepared footprint of `h` in bytes (0 until first acquire).
  [[nodiscard]] std::size_t bytes_of(Handle h) const;

  [[nodiscard]] const RegistryStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t budget_bytes() const { return config_.budget_bytes; }
  [[nodiscard]] const RegistryConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string name;
    mat::Csr matrix;
    kern::Method method{};
    std::unique_ptr<SpmvEngine> engine;  // null until acquired / after evict
    std::size_t bytes = 0;               // prepared footprint (sticky)
    std::uint64_t last_use = 0;
  };

  const Entry& entry(Handle h) const;
  void evict_until_fits(Handle keep);

  RegistryConfig config_;
  RegistryStats stats_;
  std::map<Handle, Entry> entries_;
  Handle next_handle_ = 1;
  std::uint64_t use_clock_ = 0;
};

}  // namespace spaden::serve
