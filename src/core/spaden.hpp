// Public API of the Spaden library.
//
// Quickstart:
//
//   spaden::mat::Csr a = spaden::mat::read_matrix_market_file("m.mtx");
//   spaden::SpmvEngine engine(a);                    // auto-selects method
//   std::vector<float> x(a.ncols, 1.0f), y;
//   const auto result = engine.multiply(x, y);       // y = A*x
//   std::cout << result.gflops << " modeled GFLOP/s\n";
//
// The engine owns a simulated device (L40 by default), converts the matrix
// into the chosen method's format, verifies the kernel against a
// double-precision host reference on first use, and reports modeled
// performance with the full counter breakdown.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "gpusim/device.hpp"
#include "gpusim/multidevice.hpp"
#include "kernels/kernel.hpp"
#include "matrix/csr.hpp"

namespace spaden {

/// Method selection: a concrete kernel, or Auto to apply the paper's §5.1
/// guidance (use Spaden when nrow > 10,000 and nnz/nrow > 32, otherwise
/// fall back to the CSR baseline).
struct EngineOptions {
  std::optional<kern::Method> method;   ///< nullopt = Auto
  sim::DeviceSpec device = sim::l40();
  bool verify_first_run = true;         ///< check against fp64 reference once
  /// Host threads for kernel simulation. 0 = SPADEN_SIM_THREADS env var,
  /// falling back to hardware_concurrency; 1 = the exact serial launcher.
  int sim_threads = 0;
  /// Simulated devices (gpusim/multidevice). 1 = one device, a group of
  /// one on the same multiply path. > 1 row-shards the matrix across a
  /// DeviceGroup of this spec, models the halo exchange of x over the
  /// spec's interconnect (apply_link_preset), and concatenates the
  /// per-shard outputs — bit-identical y to a single device for every
  /// deterministic method.
  int num_devices = 1;
  /// Run every launch under spaden-sancheck (memcheck + racecheck +
  /// sync-lint). Defaults to the SPADEN_SANCHECK env var. Findings land in
  /// SpmvResult::sanitizer; modeled time is unaffected.
  bool sanitize = sim::default_sancheck();
  /// Profile every launch with spaden-prof (ranges + timeline + per-SM).
  /// Reports land in SpmvResult::profiles; modeled time is unaffected.
  bool profile = false;
  /// Warp scheduling policy of the simulator (gpusim/sched): serial =
  /// run-to-completion (bit-for-bit the classic launcher), rr interleaves
  /// resident warps so the cache models see realistic access streams and
  /// the latency model can expose uncovered stalls.
  /// SPADEN_SIM_SCHED wins when set (including "serial"); otherwise the
  /// engine defaults to rr with an occupancy-derived resident window.
  sim::SchedConfig sched = sim::default_engine_sched();
  /// Read by nothing: the simulator has one L2 model, capacity/T slices
  /// per virtual SM (sim::Device). Kept only because the spaden-e2e
  /// benchmark (benchmark/e2e) sets and prints it; the next change to the
  /// benchmark deletes this field together with those two lines.
  bool shared_l2 = true;
  /// Run spaden-verify (matrix/verify.hpp) over the uploaded device-resident
  /// format right after prepare() and throw spaden::Error on any structural
  /// violation. Defaults to the SPADEN_VERIFY_FORMAT env var.
  bool verify_format = san::default_verify_format();
  /// Record spaden-telemetry (core/telemetry): engine phase spans, the
  /// metrics registry (latency histograms, counters, gauges) and the
  /// stitched host+device trace. Defaults to the SPADEN_TELEMETRY env var.
  /// Off, the engine holds no Telemetry and every hook is one null test;
  /// modeled time is bit-identical either way.
  bool telemetry = default_telemetry();
};

/// Result of one multiply.
struct SpmvResult {
  double modeled_seconds = 0;
  double gflops = 0;
  sim::KernelStats stats;
  sim::TimeBreakdown time;
  /// spaden-sancheck findings across every launch this multiply issued
  /// (empty/enabled=false unless EngineOptions::sanitize is on).
  sim::SanitizerReport sanitizer;
  /// spaden-prof report per launch this multiply issued, in launch order,
  /// with timeline events (empty unless EngineOptions::profile is on). On a
  /// multi-device engine this is the per-device logs concatenated in device
  /// order.
  std::vector<sim::ProfileReport> profiles;
};

/// Preprocessing record (paper Fig. 10).
struct PrepInfo {
  double seconds = 0;
  double ns_per_nnz = 0;
  kern::Footprint footprint;
  double bytes_per_nnz = 0;
};

class SpmvEngine {
 public:
  /// Converts `a` to the chosen format immediately (preprocessing happens
  /// here, once — "the conversion is performed only once", §5.5).
  explicit SpmvEngine(const mat::Csr& a, EngineOptions options = {});
  ~SpmvEngine();
  SpmvEngine(SpmvEngine&&) noexcept;
  SpmvEngine& operator=(SpmvEngine&&) noexcept;

  /// y = A*x. Resizes y to nrows.
  ///
  /// `x_generation` is an optional caller-managed version tag for `x`: 0
  /// (default) always uploads; a nonzero value that matches the previous
  /// call's tag skips the device upload and reuses the cached x buffer,
  /// provided x also equals the cached host copy (an O(ncols) compare, so a
  /// reused tag with new contents still uploads). With telemetry on, the
  /// skip is observable as an absent "upload" span.
  SpmvResult multiply(const std::vector<float>& x, std::vector<float>& y,
                      std::uint64_t x_generation = 0);

  /// Batched multiply against the one prepared matrix: ys[i] = A*xs[i] for k
  /// right-hand sides in a single fused launch where the method supports it
  /// (Spaden's strided multi-RHS SpMM, the CSR/BSR column grid; the other
  /// methods run per-column).
  /// Per-request outputs are bit-identical to k sequential multiply() calls.
  /// The returned result aggregates the whole batch (modeled seconds of the
  /// fused launch, gflops counting 2*nnz*k useful flops).
  /// k = 1 is exactly multiply(xs[0], ys[0]) (with no x-generation tag).
  /// k > 1 needs num_devices == 1 and throws spaden::Error otherwise: the
  /// sharded halo model covers one column.
  SpmvResult multiply_batch(const std::vector<const std::vector<float>*>& xs,
                            std::vector<std::vector<float>>& ys);
  SpmvResult multiply_batch(const std::vector<std::vector<float>>& xs,
                            std::vector<std::vector<float>>& ys);

  /// Stamp an extra label dimension (e.g. serve's matrix handle) onto every
  /// metric this engine records from now on. No-op when telemetry is off.
  void set_telemetry_label(std::string key, std::string value);

  [[nodiscard]] kern::Method chosen_method() const;
  [[nodiscard]] const PrepInfo& prep() const;
  [[nodiscard]] const sim::DeviceSpec& device() const;
  /// Simulated devices this engine runs on (EngineOptions::num_devices).
  [[nodiscard]] int num_devices() const;
  /// Host memory the simulator's cache models hold across this engine's
  /// devices (sim::Device::cache_host_bytes summed). Each device builds its
  /// caches at its first launch, so this is 0 until the first multiply.
  [[nodiscard]] std::size_t sim_host_bytes() const;
  [[nodiscard]] mat::Index nrows() const;
  [[nodiscard]] mat::Index ncols() const;
  [[nodiscard]] std::size_t nnz() const;

  /// spaden-verify sweep over the kernel's uploaded format, on demand (also
  /// runs automatically after preparation when EngineOptions::verify_format
  /// is set, throwing on violations).
  [[nodiscard]] san::FormatReport check_format() const;

  /// spaden-telemetry recorded by this engine: spans, metrics registry and
  /// the stitched trace. Null unless EngineOptions::telemetry is set.
  [[nodiscard]] const Telemetry* telemetry() const;

  /// The paper's method-selection heuristic (§5.1).
  static kern::Method auto_select(const mat::Csr& a);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spaden
