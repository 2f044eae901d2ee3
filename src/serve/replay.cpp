#include "serve/replay.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::serve {

namespace {

/// Minimal JSON reader for the replay-spec subset: one object of
/// number/string values plus one array-of-strings key. common/json only
/// writes, and the spec format is small enough that a ~hundred-line cursor
/// beats growing a parser dependency.
struct SpecCursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] char peek() {
    skip_ws();
    SPADEN_REQUIRE(pos < text.size(), "replay spec: unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    SPADEN_REQUIRE(peek() == c, "replay spec: expected '%c' at offset %zu", c, pos);
    ++pos;
  }
  [[nodiscard]] bool eat(char c) {
    if (peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      SPADEN_REQUIRE(text[pos] != '\\', "replay spec: escapes are not supported");
      out.push_back(text[pos++]);
    }
    expect('"');
    return out;
  }
  [[nodiscard]] double parse_number() {
    skip_ws();
    std::size_t end = pos;
    while (end < text.size() && (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
                                 text[end] == '-' || text[end] == '+' || text[end] == '.' ||
                                 text[end] == 'e' || text[end] == 'E')) {
      ++end;
    }
    const auto v = parse_double(text.substr(pos, end - pos).c_str());
    SPADEN_REQUIRE(v.has_value(), "replay spec: malformed number at offset %zu", pos);
    pos = end;
    return *v;
  }
};

mat::Csr load_replay_matrix(const std::string& entry, double scale, std::uint64_t seed) {
  if (entry.rfind("rmat:", 0) == 0) {
    const auto s = parse_long(entry.c_str() + 5);
    SPADEN_REQUIRE(s && *s >= 4 && *s <= 24, "replay matrix '%s': rmat scale out of [4, 24]",
                   entry.c_str());
    const mat::Coo coo = mat::rmat(static_cast<unsigned>(*s), 8.0, seed);
    return mat::Csr::from_coo(coo);
  }
  return mat::load_dataset(entry, scale);
}

}  // namespace

ReplaySpec parse_replay_spec(const std::string& json_text) {
  ReplaySpec spec;
  SpecCursor c{json_text};
  c.expect('{');
  if (!c.eat('}')) {
    do {
      const std::string key = c.parse_string();
      c.expect(':');
      if (key == "seed") {
        spec.seed = static_cast<std::uint64_t>(c.parse_number());
      } else if (key == "requests") {
        spec.requests = static_cast<std::uint64_t>(c.parse_number());
      } else if (key == "arrival_rate") {
        spec.arrival_rate = c.parse_number();
      } else if (key == "max_batch") {
        spec.max_batch = static_cast<int>(c.parse_number());
      } else if (key == "window_us") {
        spec.window_seconds = c.parse_number() * 1e-6;
      } else if (key == "tenants") {
        spec.tenants = static_cast<int>(c.parse_number());
      } else if (key == "tenant_skew") {
        spec.tenant_skew = c.parse_number();
      } else if (key == "scale") {
        spec.scale = c.parse_number();
      } else if (key == "matrices") {
        spec.matrices.clear();
        c.expect('[');
        if (!c.eat(']')) {
          do {
            spec.matrices.push_back(c.parse_string());
          } while (c.eat(','));
          c.expect(']');
        }
      } else {
        SPADEN_REQUIRE(false, "replay spec: unknown key '%s'", key.c_str());
      }
    } while (c.eat(','));
    c.expect('}');
  }
  SPADEN_REQUIRE(spec.requests >= 1, "replay spec: requests must be >= 1");
  SPADEN_REQUIRE(spec.arrival_rate > 0, "replay spec: arrival_rate must be > 0");
  SPADEN_REQUIRE(spec.tenants >= 1, "replay spec: tenants must be >= 1");
  SPADEN_REQUIRE(spec.max_batch == 0 || (spec.max_batch >= 1 && spec.max_batch <= 128),
                 "replay spec: max_batch out of [1, 128]");
  SPADEN_REQUIRE(!spec.matrices.empty(), "replay spec: matrices must be non-empty");
  return spec;
}

std::vector<Handle> register_matrices(const ReplaySpec& spec, MatrixRegistry& registry) {
  const double scale = spec.scale > 0 ? spec.scale : mat::bench_scale();
  std::vector<Handle> handles;
  handles.reserve(spec.matrices.size());
  for (std::size_t i = 0; i < spec.matrices.size(); ++i) {
    handles.push_back(registry.add(spec.matrices[i],
                                   load_replay_matrix(spec.matrices[i], scale,
                                                      spec.seed + i)));
  }
  return handles;
}

std::vector<Request> synthesize_stream(const ReplaySpec& spec,
                                       const MatrixRegistry& registry,
                                       const std::vector<Handle>& handles) {
  SPADEN_REQUIRE(!handles.empty(), "synthesize_stream needs at least one handle");
  Rng rng(spec.seed);
  // Zipf tenant weights: tenant rank t has weight (t+1)^-skew, so skew 0 is
  // uniform and larger skews concentrate traffic (and with it batching
  // opportunity) on the first tenants' matrices.
  std::vector<double> cumulative(static_cast<std::size_t>(spec.tenants));
  double total = 0;
  for (int t = 0; t < spec.tenants; ++t) {
    total += std::pow(static_cast<double>(t + 1), -spec.tenant_skew);
    cumulative[static_cast<std::size_t>(t)] = total;
  }

  std::vector<Request> stream;
  stream.reserve(spec.requests);
  double now = 0;
  for (std::uint64_t i = 0; i < spec.requests; ++i) {
    // Poisson process: exponential inter-arrival gaps.
    now += -std::log(1.0 - rng.next_double()) / spec.arrival_rate;
    const double u = rng.next_double() * total;
    int tenant = 0;
    while (tenant + 1 < spec.tenants && cumulative[static_cast<std::size_t>(tenant)] < u) {
      ++tenant;
    }
    Request req;
    req.id = i;
    req.tenant = "tenant" + std::to_string(tenant);
    req.handle = handles[static_cast<std::size_t>(tenant) % handles.size()];
    req.arrival_seconds = now;
    const mat::Index ncols = registry.matrix_of(req.handle).ncols;
    req.x.resize(ncols);
    for (float& v : req.x) {
      v = rng.next_float(-1.0f, 1.0f);
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

namespace {

void write_mode_runs(JsonWriter& w, const ServeReport& report, const char* mode_suffix,
                     const MatrixRegistry& registry, const std::vector<Handle>& handles,
                     int sim_threads) {
  for (const Handle h : handles) {
    const auto it = report.per_matrix.find(h);
    if (it == report.per_matrix.end()) {
      continue;  // no requests hit this matrix
    }
    const MatrixServeAgg& agg = it->second;
    w.begin_object();
    w.field("method", agg.method);
    w.field("device", registry.config().engine.device.name);
    w.field("matrix", agg.matrix + mode_suffix);
    w.field("nnz", static_cast<std::uint64_t>(agg.nnz));
    // Serving throughput: useful SpMV flops over modeled device-busy time.
    w.field("gflops", agg.service_seconds > 0
                          ? agg.useful_flops / agg.service_seconds / 1e9
                          : 0.0);
    w.field("modeled_seconds", agg.service_seconds);
    // Host wall-clock fields are zeroed: serve exports are byte-compared
    // across host configurations, so nothing nondeterministic may land here.
    w.field("host_seconds", 0.0);
    w.field("host_warps_per_sec", 0.0);
    w.field("sim_threads", sim_threads);
    w.field("prep_seconds", 0.0);
    w.field("prep_ns_per_nnz", 0.0);
    w.field("footprint_bytes", static_cast<std::uint64_t>(registry.bytes_of(h)));
    w.field("footprint_bytes_per_nnz",
            agg.nnz > 0 ? static_cast<double>(registry.bytes_of(h)) /
                              static_cast<double>(agg.nnz)
                        : 0.0);
    w.field("verify_max_err", 0.0);
    w.field("requests", agg.requests);
    w.field("batches", agg.batches);
    w.end_object();
  }
}

}  // namespace

std::string ReplayResult::metrics_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", met::kMetricsSchema);
  w.field("experiment", "serve");
  metrics.write_json_sections(w, /*include_host=*/true);
  w.end_object();
  return w.take();
}

std::string ReplayResult::metrics_prometheus() const { return metrics.prometheus(); }

ReplayResult run_replay(const ReplaySpec& in, MatrixRegistry* external) {
  ReplayResult out;
  out.spec = in;
  const ServeConfig defaults;
  if (out.spec.max_batch == 0) {
    out.spec.max_batch = defaults.max_batch;
  }
  if (out.spec.window_seconds < 0) {
    out.spec.window_seconds = defaults.window_seconds;
  }
  if (out.spec.scale <= 0) {
    out.spec.scale = mat::bench_scale();
  }
  const ReplaySpec& spec = out.spec;

  MatrixRegistry local;
  MatrixRegistry& registry = external != nullptr ? *external : local;
  const std::vector<Handle> handles = register_matrices(spec, registry);
  const std::vector<Request> stream = synthesize_stream(spec, registry, handles);

  // The same stream twice through the same registry (conversion happens
  // once): fused batching vs the max_batch=1 baseline.
  ServeConfig batched_cfg;
  batched_cfg.max_batch = spec.max_batch;
  batched_cfg.window_seconds = spec.window_seconds;
  batched_cfg.labels = met::LabelSet{{"mode", "batched"}};
  SpmvServer batched(registry, batched_cfg);

  ServeConfig unbatched_cfg = batched_cfg;
  unbatched_cfg.max_batch = 1;
  unbatched_cfg.labels = met::LabelSet{{"mode", "unbatched"}};
  SpmvServer unbatched(registry, unbatched_cfg);

  for (const Request& req : stream) {
    Request copy = req;
    batched.submit(std::move(copy));
  }
  out.batched = batched.drain();
  for (const Request& req : stream) {
    Request copy = req;
    unbatched.submit(std::move(copy));
  }
  out.unbatched = unbatched.drain();

  // Bit-exactness anchor: every fused request result must equal the
  // unbatched (plain sequential SpmvEngine::multiply) result byte for byte.
  out.demux_ok = true;
  for (std::size_t i = 0; i < out.batched.results.size(); ++i) {
    const std::vector<float>& yb = out.batched.results[i].y;
    const std::vector<float>& yu = out.unbatched.results[i].y;
    if (yb.size() != yu.size() ||
        (yb.size() > 0 &&
         std::memcmp(yb.data(), yu.data(), yb.size() * sizeof(float)) != 0)) {
      out.demux_ok = false;
      ++out.mismatched_requests;
    }
  }
  out.speedup = out.unbatched.requests_per_second > 0
                    ? out.batched.requests_per_second / out.unbatched.requests_per_second
                    : 0.0;
  out.service_speedup =
      out.batched.busy_seconds > 0 && out.unbatched.busy_seconds > 0 &&
              out.unbatched.requests > 0
          ? (static_cast<double>(out.batched.requests) / out.batched.busy_seconds) /
                (static_cast<double>(out.unbatched.requests) / out.unbatched.busy_seconds)
          : 0.0;
  out.tc_uplift = out.unbatched.tc_utilization() > 0
                      ? out.batched.tc_utilization() / out.unbatched.tc_utilization()
                      : 0.0;

  out.metrics.merge(batched.metrics());
  out.metrics.merge(unbatched.metrics());

  // BENCH_serve.json (schema spaden-bench-v2, matching bench_common.hpp's
  // writer): one run per (matrix, mode) so tools/perf_diff.py gates the
  // serving GFLOPS trajectory, plus the scalar serving metrics. Every field
  // is modeled or spec-derived — byte-identical across host configurations.
  const int sim_threads = default_serve_sim_threads();
  JsonWriter w;
  w.begin_object();
  w.field("schema", "spaden-bench-v2");
  w.field("experiment", "serve");
  w.field("scale", spec.scale);
  w.field("sim_threads", sim_threads);
  w.key("runs");
  w.begin_array();
  write_mode_runs(w, out.batched, " (batched)", registry, handles, sim_threads);
  write_mode_runs(w, out.unbatched, " (unbatched)", registry, handles, sim_threads);
  w.end_array();
  w.key("metrics");
  w.begin_array();
  const auto metric = [&w](const std::string& name, double value) {
    w.begin_object();
    w.field("name", name);
    w.field("value", value);
    w.end_object();
  };
  metric("requests_per_sec_batched", out.batched.requests_per_second);
  metric("requests_per_sec_unbatched", out.unbatched.requests_per_second);
  metric("speedup_requests_per_sec", out.speedup);
  metric("service_speedup", out.service_speedup);
  metric("tc_utilization_batched", out.batched.tc_utilization());
  metric("tc_utilization_unbatched", out.unbatched.tc_utilization());
  metric("tc_utilization_uplift", out.tc_uplift);
  metric("mean_batch_width_batched",
         out.batched.batches > 0 ? static_cast<double>(out.batched.requests) /
                                       static_cast<double>(out.batched.batches)
                                 : 0.0);
  // Per-matrix serving-capacity speedup: requests per modeled device-busy
  // second, batched over unbatched (equals the per-matrix GFLOPS ratio).
  for (const Handle h : handles) {
    const auto bit = out.batched.per_matrix.find(h);
    const auto uit = out.unbatched.per_matrix.find(h);
    if (bit == out.batched.per_matrix.end() || uit == out.unbatched.per_matrix.end() ||
        bit->second.service_seconds <= 0 || uit->second.useful_flops <= 0) {
      continue;
    }
    const double b = bit->second.useful_flops / bit->second.service_seconds;
    const double u = uit->second.useful_flops / uit->second.service_seconds;
    metric("service_speedup@" + bit->second.matrix, u > 0 ? b / u : 0.0);
  }
  // Quantized (log-bucket) latency percentiles from the mode-level
  // aggregate histograms the server records next to the per-matrix series.
  met::MetricsRegistry& breg = batched.metrics();
  met::MetricsRegistry& ureg = unbatched.metrics();
  metric("p50_latency_seconds_batched",
         breg.histogram("spaden_serve_latency_seconds", batched_cfg.labels).quantile(0.5));
  metric("p99_latency_seconds_batched",
         breg.histogram("spaden_serve_latency_seconds", batched_cfg.labels).quantile(0.99));
  metric("p50_latency_seconds_unbatched",
         ureg.histogram("spaden_serve_latency_seconds", unbatched_cfg.labels).quantile(0.5));
  metric("p99_latency_seconds_unbatched",
         ureg.histogram("spaden_serve_latency_seconds", unbatched_cfg.labels).quantile(0.99));
  w.end_array();
  w.end_object();
  out.bench_json = w.take();
  return out;
}

}  // namespace spaden::serve
