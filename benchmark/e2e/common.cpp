#include <time.h>

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "e2e.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::e2e {

double CpuTimer::now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t mix(std::uint64_t seed, std::string_view tag, std::uint64_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ull;
  }
  std::uint64_t z = (seed ^ h) + 0x9E3779B97F4A7C15ull * (n + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

mat::Csr make_matrix(const std::string& name, double scale, std::uint64_t seed) {
  if (name.rfind("rmat:", 0) == 0) {
    const auto s = parse_long(name.c_str() + 5);
    SPADEN_REQUIRE(s && *s >= 4 && *s <= 20, "bad R-MAT matrix '%s'", name.c_str());
    return mat::Csr::from_coo(mat::rmat(static_cast<unsigned>(*s), 8.0, mix(seed, name)));
  }
  const mat::DatasetInfo& info = mat::dataset_by_name(name);
  return seed == 0 ? mat::load_dataset(info, scale)
                   : mat::synthesize(info.profile, scale, mix(seed, name));
}

std::vector<float> make_x(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (float& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  return x;
}

EngineOptions pinned_options(std::optional<kern::Method> method, int devices, bool telemetry) {
  EngineOptions o;
  o.method = method;
  o.device = sim::l40();
  sim::apply_link_preset(o.device, "nvlink");
  o.verify_first_run = true;
  o.sim_threads = 1;
  o.num_devices = devices;
  o.sanitize = false;
  o.profile = false;
  o.sched = sim::SchedConfig{sim::SchedPolicy::RoundRobin, 0};
  o.shared_l2 = true;
  o.verify_format = false;
  o.telemetry = telemetry;
  return o;
}

bool half_values(kern::Method m) {
  switch (m) {
    case kern::Method::Spaden:
    case kern::Method::SpadenNoTc:
    case kern::Method::SpadenConventional:
    case kern::Method::SpadenUnpaired:
    case kern::Method::SpadenWide:
    case kern::Method::Dasp:
      return true;
    default:
      return false;
  }
}

void Checker::check(const mat::Csr& a, kern::Method method, const std::vector<float>& x,
                    const std::vector<float>& y) {
  ++attempted_;
  const std::vector<double> ref = mat::spmv_reference(a, x);
  const double tol = kern::spmv_tolerance(a, half_values(method));
  bool ok = y.size() == ref.size();
  double worst = 0;
  for (std::size_t i = 0; ok && i < ref.size(); ++i) {
    const double err = std::abs(static_cast<double>(y[i]) - ref[i]);
    ok = err <= tol;  // false for NaN
    worst = std::max(worst, err);
  }
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "[e2e] wrong output: %s, %u rows, max err %g > tolerance %g\n",
                 std::string(kern::method_name(method)).c_str(), a.nrows, worst, tol);
  }
}

void Checker::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "[e2e] operation failed: %s\n", what.c_str());
}

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)) {}

double Tracer::now() const { return clock_.seconds(); }

int Tracer::begin(std::string name, std::string layer) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = s.end_s = now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  if (span < 0) {
    return;
  }
  SPADEN_REQUIRE(!open_.empty() && open_.back() == span, "span %d closed out of order", span);
  spans_[static_cast<std::size_t>(span)].end_s = now();
  open_.pop_back();
}

void Tracer::arg(int span, std::string key, double value) {
  if (span >= 0) {
    spans_[static_cast<std::size_t>(span)].args.emplace_back(std::move(key), value);
  }
}

namespace {

/// Depth of each telemetry span in [from, end) relative to the first root.
std::vector<int> relative_depths(const std::vector<SpanRecord>& spans, std::size_t from) {
  std::vector<int> depth(spans.size() - from, 0);
  for (std::size_t i = from; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    depth[i - from] =
        p < static_cast<int>(from) ? 0 : depth[static_cast<std::size_t>(p) - from] + 1;
  }
  return depth;
}

std::string engine_layer(const std::string& name) {
  if (name == "verify" || name == "upload" || name == "download") {
    return "core." + name;
  }
  return "core.launch";
}

}  // namespace

void Tracer::stitch(int parent, const std::vector<SpanRecord>& spans, std::size_t from) {
  if (!enabled_ || parent < 0 || from >= spans.size()) {
    return;
  }
  const std::vector<int> depth = relative_depths(spans, from);
  std::map<int, double> cursor;  // telemetry index -> next child start
  std::map<int, int> ids;        // telemetry index -> tracer index
  double root_cursor = spans_[static_cast<std::size_t>(parent)].start_s;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    const int d = depth[i - from];
    double& cur = d == 0 ? root_cursor : cursor[r.parent];
    Span s;
    s.name = r.name;
    s.layer = d == 0 ? "core" : d == 1 ? engine_layer(r.name)
                                       : spans_[static_cast<std::size_t>(ids[r.parent])].layer;
    s.parent = d == 0 ? parent : ids[r.parent];
    s.start_s = cur;
    s.end_s = cur + r.host_seconds;
    if (r.modeled_seconds >= 0) {
      s.args.emplace_back("modeled_us", r.modeled_seconds * 1e6);
    }
    cur = s.end_s;
    cursor[static_cast<int>(i)] = s.start_s;
    spans_.push_back(std::move(s));
    ids[static_cast<int>(i)] = static_cast<int>(spans_.size()) - 1;
  }
}

std::string Tracer::chrome_trace_json() const {
  JsonWriter w(false);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", s.layer);
    w.field("ph", "X");
    w.field("pid", 0);
    w.field("tid", 0);
    w.field("ts", s.start_s * 1e6);
    w.field("dur", (s.end_s - s.start_s) * 1e6);
    w.key("args");
    w.begin_object();
    w.field("span", static_cast<std::uint64_t>(i));
    w.field("parent", s.parent);
    w.field("workload", workload_);
    for (const auto& [k, v] : s.args) {
      w.field(k, v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  return w.take();
}

EngineSplit& EngineSplit::operator+=(const EngineSplit& o) {
  total += o.total;
  verify += o.verify;
  upload += o.upload;
  launch += o.launch;
  download += o.download;
  return *this;
}

EngineSplit split_spans(const std::vector<SpanRecord>& spans, std::size_t from) {
  EngineSplit split;
  if (from >= spans.size()) {
    return split;
  }
  const std::vector<int> depth = relative_depths(spans, from);
  for (std::size_t i = from; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    const int d = depth[i - from];
    if (d == 0) {
      split.total += r.host_seconds;
    } else if (d == 1) {
      (r.name == "verify" ? split.verify
       : r.name == "upload" ? split.upload
       : r.name == "download" ? split.download
                              : split.launch) += r.host_seconds;
    }
  }
  return split;
}

void profile_spaden(Tracer& tracer, const std::string& label, const mat::Csr& a, int devices,
                    std::uint64_t x_seed, Results& out) {
  const SpanGuard span(tracer, "profile " + label, "bench");
  EngineOptions o = pinned_options(kern::Method::Spaden, devices, false);
  o.profile = true;
  SpmvEngine engine(a, o);
  std::vector<float> y;
  const SpmvResult res = engine.multiply(make_x(a.ncols, x_seed), y);
  for (std::size_t k = 0; k < res.profiles.size(); ++k) {
    const sim::ProfileReport& rep = res.profiles[k];
    for (const sim::RangeProfile& range : rep.ranges) {
      // Launch k of the multiply (one per device on a sharded engine).
      const std::string key = std::to_string(k) + "." + rep.kernel_name + "/" + range.name;
      tracer.arg(span.id(), key + ".attributed_us", range.attributed * 1e6);
      tracer.arg(span.id(), key + ".mem_instructions",
                 static_cast<double>(range.stats.mem_instructions));
    }
    out.spaden_profiles.push_back(rep);
    out.spaden_profiles.back().events.clear();
  }
}

void Results::reset_modeled() {
  gflops.clear();
  cell_gflops.clear();
  ops = busy_s = 0;
  latency_s.clear();
  scaling_x4.clear();
  shard_imbalance.clear();
  probes.clear();
  spaden_profiles.clear();
  tc_useful_flops = tc_flops = 0;
  requests = batches = fused_batches = busy_b = makespan_b = 0;
  queue_s.clear();
  hits = prepares = evictions = 0;
}

}  // namespace spaden::e2e
