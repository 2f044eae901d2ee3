// spaden-serve request queue + batch former.
//
// Clients submit (handle, x) requests; the server groups pending requests
// by matrix handle and dispatches each group as ONE multi-RHS SpMM launch
// (SpmvEngine::multiply_batch -> Spaden's strided fused kernel) when the
// group reaches max_batch columns or its batching window expires, falling
// back to the plain SpMV path for singletons. Per-request outputs are
// demultiplexed from the SpMM result and are bit-identical to sequential
// SpmvEngine::multiply calls — batching changes latency and throughput,
// never numerics.
//
// The server runs in deterministic virtual time. Requests carry modeled
// arrival timestamps; drain() replays them through an event loop where
// service times are the engine's modeled seconds and the (single,
// serializing) device becomes free at start + service. Everything — batch
// formation, queue/service latencies, requests/s — is a pure function of
// the submitted stream, so tests and benches byte-compare reports across
// host configurations.
//
// Batch-width observations go through the met::MetricsRegistry histogram
// substrate, whose fixed log boundaries (1.78x apart) quantize widths just
// like latencies — deterministic, byte-comparable, and documented in
// docs/serving.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "serve/registry.hpp"

namespace spaden::serve {

struct ServeConfig {
  /// Fused batch width cap in [1, 128]. 1 disables fusion entirely (the
  /// unbatched baseline).
  int max_batch = 32;
  double window_seconds = 200e-6;  ///< batching window
  /// Labels stamped on every serve metric (replay tags mode=batched/...).
  met::LabelSet labels;
};

struct Request {
  std::uint64_t id = 0;
  Handle handle = 0;
  std::string tenant;
  double arrival_seconds = 0;  ///< virtual-time arrival (SpmvServer)
  std::vector<float> x;
};

struct RequestResult {
  std::uint64_t id = 0;
  Handle handle = 0;
  std::string tenant;
  int batch_width = 1;
  bool fused = false;             ///< served by a multi-RHS launch
  double arrival_seconds = 0;
  double start_seconds = 0;       ///< batch dispatch time
  double queue_seconds = 0;       ///< start - arrival
  double service_seconds = 0;     ///< modeled seconds of the serving launch
  double finish_seconds = 0;      ///< start + service
  std::vector<float> y;
};

/// Per-matrix aggregates of one drained stream (feeds BENCH_serve.json).
struct MatrixServeAgg {
  std::string matrix;
  std::string method;
  std::size_t nnz = 0;
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  double service_seconds = 0;  ///< Σ modeled service across this matrix's batches
  double useful_flops = 0;     ///< Σ 2*nnz*width
  double tc_flops = 0;         ///< Σ tensor-core flops actually executed
};

struct ServeReport {
  std::vector<RequestResult> results;  ///< sorted by request id
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t fused_batches = 0;
  std::map<int, std::uint64_t> batch_width_counts;
  double makespan_seconds = 0;         ///< last finish (stream starts at ~0)
  double busy_seconds = 0;             ///< Σ service (device occupancy)
  double requests_per_second = 0;      ///< requests / makespan
  double useful_flops = 0;
  double tc_flops = 0;
  std::map<Handle, MatrixServeAgg> per_matrix;

  /// Fraction of executed tensor-core flops doing useful SpMV work — the
  /// fragment-utilization number batching exists to raise. Past 8 RHS
  /// columns A is block-diagonal ([A1 0; 0 A2]), so one MMA does at most
  /// 2 blocks × 16 RHS of useful products: 2·64·16·2 = 4096 of its 8192
  /// flops, a ceiling of 0.5 that only dense blocks in full 16-column
  /// tiles reach. Up to 8 columns A holds 4 blocks × 8 RHS, the same 0.5;
  /// SpMV's single RHS caps it at 1/16.
  [[nodiscard]] double tc_utilization() const {
    return tc_flops > 0 ? useful_flops / tc_flops : 0.0;
  }
};

/// Deterministic virtual-time server: submit requests with modeled arrival
/// timestamps, then drain() the stream through the batch former.
class SpmvServer {
 public:
  explicit SpmvServer(MatrixRegistry& registry, ServeConfig config = {});

  void submit(Request req);

  /// Replay every submitted request through the batching event loop.
  /// Flushes groups in (deadline, handle) order interleaved with arrivals;
  /// a group dispatches early the moment it reaches max_batch width. Clears
  /// the queue; the server is reusable afterwards.
  [[nodiscard]] ServeReport drain();

  [[nodiscard]] met::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const met::MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  void dispatch(std::vector<Request> reqs, double trigger_seconds, double& device_free,
                ServeReport& report);

  MatrixRegistry& registry_;
  ServeConfig config_;
  met::MetricsRegistry metrics_;
  std::vector<Request> queue_;
};

}  // namespace spaden::serve
