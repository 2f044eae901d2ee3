// spaden-serve workload replay: seeded synthetic request streams and the
// batched-vs-unbatched comparison harness behind `bench/serve_replay` and
// `spaden serve --replay`.
//
// A ReplaySpec describes a stream — Poisson arrivals (common/rng), a matrix
// mix of Table-1 datasets and R-MAT graphs, Zipf-skewed tenants, batching
// knobs. run_replay() replays the identical stream twice through one
// MatrixRegistry: once with the fused batch former and once with
// max_batch=1 (the unbatched baseline), byte-compares every per-request y
// between the two (the bit-exactness acceptance anchor), and packages the
// results as a BENCH_serve.json document (schema spaden-bench-v2, diffed by
// tools/perf_diff.py like every figure bench) plus the merged serve metrics
// registries (METRICS_serve.{json,prom}).
//
// Everything downstream of the spec is deterministic: engines run under
// serve::pinned_engine_options, service times are modeled, arrivals are
// seeded — so the emitted BENCH/METRICS bytes are identical across
// SPADEN_SIM_THREADS, scheduler policies, and host machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace spaden::serve {

struct ReplaySpec {
  std::uint64_t seed = 42;
  std::uint64_t requests = 512;
  /// Poisson arrival rate in requests per modeled second. The default
  /// saturates the unbatched device (arrivals span ~128us while unbatched
  /// service needs ~650us) — an unsaturated stream finishes as requests
  /// trickle in and batching can only add window latency. The batched side
  /// still finishes one batching window after the last arrival, so its
  /// requests/s is paced by the window; ReplayResult::service_speedup
  /// measures service capacity.
  double arrival_rate = 4e6;
  int max_batch = 0;            ///< 0 = ServeConfig's default (32)
  double window_seconds = -1;   ///< < 0 = ServeConfig's default (200 us)
  int tenants = 4;
  double tenant_skew = 1.0;     ///< Zipf exponent over tenant ranks
  double scale = 0;             ///< dataset scale; 0 = mat::bench_scale()
  /// Dataset names (matrix/dataset registry) or "rmat:<scale>" R-MAT
  /// graphs. Tenant t sends to matrix t % matrices.size(), so tenant skew
  /// induces matrix skew.
  std::vector<std::string> matrices = {"cant", "consph", "rmat:10"};
};

/// Parse a replay spec from a small JSON object. Recognized keys: seed,
/// requests, arrival_rate, max_batch, window_us, tenants, tenant_skew,
/// scale, matrices (array of strings). Unknown keys are an error; missing
/// keys keep their defaults. Throws spaden::Error on malformed input.
[[nodiscard]] ReplaySpec parse_replay_spec(const std::string& json_text);

struct ReplayResult {
  ReplaySpec spec;         ///< with max_batch / window / scale resolved
  ServeReport batched;
  ServeReport unbatched;
  met::MetricsRegistry metrics;  ///< both servers' registries, mode-labeled
  bool demux_ok = false;   ///< batched y bit-identical to unbatched per request
  std::uint64_t mismatched_requests = 0;
  double speedup = 0;      ///< batched vs unbatched requests/s
  /// Batched vs unbatched requests per modeled device-busy second over the
  /// whole stream: service capacity, which the batching window cannot cap
  /// the way it caps requests/s of a stream that arrives within it.
  double service_speedup = 0;
  double tc_uplift = 0;    ///< batched vs unbatched tensor-core utilization
  std::string bench_json;  ///< BENCH_serve.json content (deterministic)

  /// METRICS_serve.json / .prom content (deterministic: every serve
  /// metric is modeled).
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string metrics_prometheus() const;
};

/// Synthesize the spec's request stream (pure function of the spec and the
/// registered matrix shapes).
[[nodiscard]] std::vector<Request> synthesize_stream(const ReplaySpec& spec,
                                                     const MatrixRegistry& registry,
                                                     const std::vector<Handle>& handles);

/// Load the spec's matrices into `registry`, returning their handles in
/// spec order.
[[nodiscard]] std::vector<Handle> register_matrices(const ReplaySpec& spec,
                                                    MatrixRegistry& registry);

/// Replay the spec batched + unbatched and package the comparison. Uses
/// `registry` when given (must be freshly constructed; the caller keeps it
/// to inspect engines afterwards — the CLI's --trace), otherwise an
/// internal pinned-option registry.
[[nodiscard]] ReplayResult run_replay(const ReplaySpec& spec,
                                      MatrixRegistry* registry = nullptr);

}  // namespace spaden::serve
