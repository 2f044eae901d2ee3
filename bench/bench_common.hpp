// Shared plumbing for the figure benches: dataset iteration with progress
// reporting, scale banner, paper-value comparison rows, and the structured
// JSON export every figure bench emits (BENCH_<experiment>.json).
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/telemetry.hpp"
#include "gpusim/device.hpp"
#include "matrix/dataset.hpp"

namespace spaden::bench {

/// Bench-export schema identifier, bumped on breaking layout changes.
/// v2 adds per-run host-side throughput (host_warps_per_sec, sim_threads)
/// next to host_seconds — purely additive, so v1 readers keep working.
inline constexpr const char* kBenchSchema = "spaden-bench-v2";

/// The directory bench outputs go to: $SPADEN_BENCH_DIR, or the working
/// directory when it is unset or empty.
inline std::string output_dir() {
  const char* dir = std::getenv("SPADEN_BENCH_DIR");
  return dir != nullptr && dir[0] != '\0' ? std::string(dir) : ".";
}

/// Checks that output_dir() is a writable directory, so a bench fails
/// before its first cell instead of after its last: otherwise prints an
/// error naming the directory and exits with status 1.
inline void require_writable_output_dir() {
  const std::string dir = output_dir();
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec) || ::access(dir.c_str(), W_OK) != 0) {
    std::fprintf(stderr, "error: bench output directory '%s' (SPADEN_BENCH_DIR) is not a "
                 "writable directory\n", dir.c_str());
    std::exit(1);
  }
}

/// Structured results collector: every figure bench funnels its MethodRuns
/// (and derived scalar metrics like geomean speedups) through one of these
/// and writes BENCH_<experiment>.json next to the binary — or under
/// SPADEN_BENCH_DIR when set — so CI can diff runs without scraping stdout.
class BenchJson {
 public:
  /// Benches construct their collector before the first cell, so it checks
  /// the output directory (require_writable_output_dir).
  BenchJson(std::string experiment, double scale)
      : experiment_(std::move(experiment)), scale_(scale) {
    require_writable_output_dir();
  }

  void add(const analysis::MethodRun& run) { runs_.push_back(run); }

  /// Derived scalar (e.g. "geomean_speedup_vs_dasp@L40" -> 2.32).
  void add_metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// Destination: $SPADEN_BENCH_DIR/BENCH_<experiment>.json (or cwd).
  [[nodiscard]] std::string path() const {
    return output_dir() + "/BENCH_" + experiment_ + ".json";
  }

  /// Serialize and write the report; prints the destination to stderr.
  void write() const {
    JsonWriter w;
    w.begin_object();
    w.field("schema", kBenchSchema);
    w.field("experiment", experiment_);
    w.field("scale", scale_);
    w.field("sim_threads", sim::default_sim_threads());
    w.key("runs");
    w.begin_array();
    for (const analysis::MethodRun& run : runs_) {
      w.begin_object();
      w.field("method", std::string(kern::method_name(run.method)));
      w.field("device", run.device_name);
      w.field("matrix", run.matrix_name);
      w.field("nnz", static_cast<std::uint64_t>(run.nnz));
      w.field("gflops", run.gflops);
      w.field("modeled_seconds", run.modeled_seconds);
      w.field("host_seconds", run.host_seconds);
      // Host-side simulator throughput for the timed run (NOT a modeled
      // quantity). warps_launched aggregates every launch a multi-pass
      // kernel issues (gunrock/csr_adaptive/dasp merge pass stats), so the
      // rate is meaningful for those too.
      w.field("host_warps_per_sec", run.host_warps_per_sec);
      w.field("sim_threads", run.sim_threads);
      w.field("prep_seconds", run.prep_seconds);
      w.field("prep_ns_per_nnz", run.prep_ns_per_nnz);
      w.field("footprint_bytes", static_cast<std::uint64_t>(run.footprint_bytes));
      w.field("footprint_bytes_per_nnz", run.footprint_bytes_per_nnz);
      w.field("verify_max_err", run.verify_max_err);
      w.key("stats");
      run.stats.to_json(w);
      w.key("time");
      run.time.to_json(w);
      w.end_object();
    }
    w.end_array();
    w.key("metrics");
    w.begin_array();
    for (const auto& [name, value] : metrics_) {
      w.begin_object();
      w.field("name", name);
      w.field("value", value);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    const std::string out = path();
    write_text_file(out, w.take());
    std::fprintf(stderr, "[json] wrote %s (%zu runs, %zu metrics)\n", out.c_str(),
                 runs_.size(), metrics_.size());
    if (default_telemetry()) {
      write_metrics();
    }
  }

  /// spaden-telemetry funnel (SPADEN_TELEMETRY-gated so default bench
  /// outputs stay bit-identical): every MethodRun feeds per-method/device
  /// latency histograms, written as METRICS_<experiment>.{json,prom} next to
  /// the BENCH file. tools/perf_diff.py --metrics trends the p50/p99.
  void write_metrics() const {
    met::MetricsRegistry reg;
    for (const analysis::MethodRun& run : runs_) {
      met::LabelSet labels{{"method", std::string(kern::method_name(run.method))},
                           {"device", run.device_name}};
      reg.counter("spaden_bench_runs_total", labels, "Bench method runs").inc();
      reg.histogram("spaden_bench_modeled_seconds", labels,
                    "Modeled seconds of the timed multiply per bench run")
          .observe(run.modeled_seconds);
      reg.histogram("spaden_bench_host_seconds", labels,
                    "Host wall-clock seconds of the timed multiply per bench run")
          .observe(run.host_seconds);
      reg.histogram("spaden_bench_convert_host_seconds", labels,
                    "Host wall-clock seconds of format preparation per bench run")
          .observe(run.prep_seconds);
    }
    const std::string stem = output_dir() + "/METRICS_" + experiment_;
    JsonWriter w;
    w.begin_object();
    w.field("schema", met::kMetricsSchema);
    w.field("experiment", experiment_);
    reg.write_json_sections(w, /*include_host=*/true);
    w.end_object();
    write_text_file(stem + ".json", w.take());
    write_text_file(stem + ".prom", reg.prometheus());
    std::fprintf(stderr, "[json] wrote %s.{json,prom} (%zu metric families)\n",
                 stem.c_str(), reg.family_count());
  }

 private:
  std::string experiment_;
  double scale_;
  std::vector<analysis::MethodRun> runs_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void print_banner(const char* experiment, double scale) {
  std::printf("=== %s ===\n", experiment);
  std::printf(
      "matrices synthesized from Table 1 statistics at scale %.4g "
      "(SPADEN_SCALE=1.0 for full size); GFLOPS are modeled on the simulated "
      "device — see DESIGN.md; simulating on %d host thread(s) "
      "(SPADEN_SIM_THREADS to override)\n\n",
      scale, sim::default_sim_threads());
}

/// Load a dataset with a progress line on stderr (generation of the larger
/// matrices takes seconds).
inline mat::Csr load_with_progress(const mat::DatasetInfo& info, double scale) {
  std::fprintf(stderr, "[gen] %s @ %.4g...\n", info.name().c_str(), scale);
  return mat::load_dataset(info, scale);
}

inline analysis::MethodRun run_with_progress(const sim::DeviceSpec& spec, kern::Method m,
                                             const mat::Csr& a, const std::string& name) {
  std::fprintf(stderr, "[run] %-14s %-12s on %s...\n",
               std::string(kern::method_name(m)).c_str(), name.c_str(), spec.name.c_str());
  Timer wall;
  analysis::MethodRun run = analysis::run_method(spec, m, a, name);
  // Host-side simulation cost (prepare + verify + timed run) — this is the
  // simulator's own speed, not a modeled quantity.
  std::fprintf(stderr, "[run]   done in %.2f s host wall-clock (%.3g warps/s, %d thread%s)\n",
               wall.seconds(), run.host_warps_per_sec, run.sim_threads,
               run.sim_threads == 1 ? "" : "s");
  return run;
}

/// "1.63x (paper: 1.63x)" comparison cell.
inline std::string vs_paper(double measured, double paper) {
  return strfmt("%.2fx (paper %.2fx)", measured, paper);
}

}  // namespace spaden::bench
