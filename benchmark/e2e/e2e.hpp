// spaden-e2e: one end-to-end benchmark over the public Spaden API.
//
// Every layer is measured from outside: the benchmark times calls into
// mat::synthesize, the SpmvEngine constructor, multiply / multiply_batch,
// MatrixRegistry::acquire and SpmvServer::drain, and reads the counters those
// calls already return (SpmvResult, PrepInfo, ServeReport, RegistryStats,
// engine telemetry spans and profiler ranges). Nothing inside src/ knows the
// benchmark exists.
//
// A run is: set-up (repeated; the median is setup_s), then rounds of the
// workload's fixed operation set until --seconds have passed (the median
// round CPU time is host_round_s). Round 0 always runs and is the only one
// whose modeled numbers are reported, so modeled metrics are a pure function
// of (workload, seed) at one simulation thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/spaden.hpp"
#include "matrix/csr.hpp"

namespace spaden::e2e {

/// Resolved configuration of one run; written into every result file.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;   ///< tiny scale, one set-up, one round (CTest smoke)
  double scale = 0;     ///< dataset scale of the workload's Table-1 matrices
  int setup_reps = 3;
};

/// Process CPU seconds (user + system) since construction. Host times use
/// it: the simulator runs on one thread, so CPU time is its cost without the
/// waits that other load on the machine adds to wall time.
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now();
  double start_;
};

/// splitmix64 of `seed` folded into an FNV-1a hash of `tag` and `n`: the one
/// source of every seeded input (matrices, x vectors, arrival streams).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::string_view tag, std::uint64_t n = 0);

/// A Table-1 dataset at `scale` (the canonical matrix the figure benches use
/// at seed 0, re-synthesized from the same profile otherwise) or
/// "rmat:<s>", an R-MAT graph with 2^s vertices and edge factor 8.
[[nodiscard]] mat::Csr make_matrix(const std::string& name, double scale, std::uint64_t seed);

/// Uniform x in [-1, 1), the range kern::spmv_tolerance assumes.
[[nodiscard]] std::vector<float> make_x(std::size_t n, std::uint64_t seed);

/// Engine options with every field set explicitly: L40 with the nvlink
/// preset, one simulation thread, round-robin scheduling with a shared L2,
/// verification on first run, no sanitizer, no profiler, no format gate (the
/// serve workloads turn it on, as the serve registry does). `telemetry`
/// records engine spans for the traced run.
[[nodiscard]] EngineOptions pinned_options(std::optional<kern::Method> method, int devices,
                                           bool telemetry);

/// Checks outputs against mat::spmv_reference within kern::spmv_tolerance
/// and counts operations attempted and failed.
class Checker {
 public:
  /// One operation: y = A*x must hold within the method's tolerance.
  void check(const mat::Csr& a, kern::Method method, const std::vector<float>& x,
             const std::vector<float>& y);
  /// One operation that threw.
  void fail(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Bench-side spans, kept in memory and written at exit (chrome trace).
/// Engine telemetry spans are stitched under the bench span that caused
/// them. Disabled, every call is a no-op returning -1.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;  ///< src/ module the span's self time belongs to
    int parent = -1;
    double start_s = 0;  ///< seconds since the tracer started
    double end_s = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer(bool enabled, std::string workload);

  int begin(std::string name, std::string layer);
  void end(int span);
  void arg(int span, std::string key, double value);
  /// Append the engine telemetry spans [from, end) under `parent`, laid out
  /// back to back from the parent's start (telemetry records durations, not
  /// start times).
  void stitch(int parent, const std::vector<SpanRecord>& spans, std::size_t from);

  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  [[nodiscard]] double now() const;

  bool enabled_;
  std::string workload_;
  Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII bench span (closes on scope exit).
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, std::string name, std::string layer)
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(layer))) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { close(); }
  void close() {
    if (!closed_) {
      closed_ = true;
      tracer_.end(id_);
    }
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
  bool closed_ = false;
};

/// One operation whose full SpmvResult the benchmark holds: the source of
/// the kernel, gpusim and tensor-core layer metrics.
struct Probe {
  std::size_t nnz = 0;
  SpmvResult result;
  double launch_host_s = -1;  ///< host seconds in launch spans (< 0 untraced)
};

/// Engine-side host seconds split by span kind.
struct EngineSplit {
  double total = 0;  ///< root spans (multiply, multiply_batch, ...)
  double verify = 0;
  double upload = 0;
  double launch = 0;
  double download = 0;
  [[nodiscard]] double self() const { return total - verify - upload - launch - download; }
  EngineSplit& operator+=(const EngineSplit& o);
};

/// Split of the telemetry spans [from, end).
[[nodiscard]] EngineSplit split_spans(const std::vector<SpanRecord>& spans, std::size_t from);

struct Results;

/// One Spaden multiply of `a` on a fresh engine with the profiler on: its
/// launch reports go to Results::spaden_profiles and its per-range counters
/// onto a "profile" bench span. The profiler roughly doubles simulation
/// time, so the traced rounds run without it and the kernel phase split
/// (paper Fig. 8) comes from these separate multiplies.
void profile_spaden(Tracer& tracer, const std::string& label, const mat::Csr& a, int devices,
                    std::uint64_t x_seed, Results& out);

/// Everything one run measures.
struct Results {
  // host, per set-up repetition (untraced set-ups only)
  std::vector<double> setup_s, generate_s, construct_s, first_multiply_s;
  // host, per round
  std::vector<double> round_s, traced_round_s;
  /// Traced rounds: wall seconds per layer (bench, serve, core.*), summed;
  /// the parts add up to the traced rounds' wall time.
  std::map<std::string, double> host_parts;

  // modeled, from the reported round
  std::map<kern::Method, std::vector<double>> gflops;  ///< per op or served matrix
  std::vector<std::pair<std::string, double>> cell_gflops;  ///< the same, labeled
  double ops = 0;     ///< operations (calls or requests) behind `busy_s`
  double busy_s = 0;  ///< modeled device-busy seconds of those operations
  std::vector<double> latency_s;
  std::vector<double> scaling_x4;       ///< per sharded cell: GFLOP/s at 4 / at 1
  std::vector<double> shard_imbalance;  ///< per sharded cell: max / mean shard nnz
  std::vector<Probe> probes;
  std::vector<sim::ProfileReport> spaden_profiles;  ///< profiled Spaden launches
  double tc_useful_flops = 0;  ///< 2 * nnz * width over tensor-core operations
  double tc_flops = 0;         ///< tensor-core flops those operations executed

  // format preparation (last set-up)
  double prep_s = 0, prep_nnz = 0, footprint_bytes = 0;

  // serve layer, from the reported round
  double requests = 0, batches = 0, fused_batches = 0;
  double busy_b = 0, makespan_b = 0;  ///< latency phase
  std::vector<double> queue_s;        ///< per request of the latency phase
  double hits = 0, prepares = 0, evictions = 0;  ///< registry

  /// Drop the modeled accumulators (the traced half of a --trace run
  /// reports its own).
  void reset_modeled();
};

/// A workload: a fixed operation set plus the set-up it needs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every matrix and engine from scratch, replacing the previous set.
  /// Untraced set-ups record their layer times into `out`.
  virtual void setup(bool traced, Results& out) = 0;
  /// Run round `r` and return its host seconds (inputs are generated and
  /// outputs checked outside the timed part). The `report` round feeds the
  /// modeled metrics.
  virtual double round(int r, bool traced, bool report, Results& out) = 0;
  /// Profile one multiply of every Spaden operation into
  /// Results::spaden_profiles (traced run only, after the rounds).
  virtual void profile(Results& out) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_closed_loop(const RunConfig& cfg, Tracer& tracer,
                                                         Checker& checker);
[[nodiscard]] std::unique_ptr<Workload> make_serve(const RunConfig& cfg, Tracer& tracer,
                                                   Checker& checker);

/// True for methods whose values are stored in binary16.
[[nodiscard]] bool half_values(kern::Method m);

}  // namespace spaden::e2e
