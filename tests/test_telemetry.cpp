// spaden-telemetry: the metrics registry's quantized-histogram goldens and
// export schemas, the engine's span tree, and the two contracts the layer
// is built around — modeled-time metrics byte-identical across simulator
// configurations, and zero cost (bit-identical modeled time) when disabled.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/spaden.hpp"
#include "gpusim/multidevice.hpp"
#include "matrix/generate.hpp"

namespace spaden {
namespace {

// ---------------------------------------------------------------- histogram

TEST(MetricsHistogram, QuantizesOntoFixedBoundaries) {
  met::Histogram h;
  h.observe(1e-7);  // exactly a boundary: lands in the le=1e-7 bucket
  h.observe(1.2e-7);
  EXPECT_EQ(h.count(), 2U);
  EXPECT_EQ(h.bucket_count(8), 1U);  // kTimeBoundaries[8] == 1e-7
  EXPECT_EQ(h.bucket_count(9), 1U);  // next bucket up
  EXPECT_DOUBLE_EQ(met::kTimeBoundaries[8], 1e-7);
}

TEST(MetricsHistogram, PercentileGolden) {
  met::Histogram h;
  h.observe(1e-7);
  h.observe(1e-7);
  h.observe(1e-7);
  h.observe(1e-3);
  // Rank ceil(q*n) over bucket counts: p50 -> rank 2 (first bucket), p90 and
  // p99 -> rank 4 (the 1e-3 bucket). All results are boundary values.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1e-7);
  EXPECT_DOUBLE_EQ(h.quantile(0.90), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantized_min(), 1e-7);
  EXPECT_DOUBLE_EQ(h.quantized_max(), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantized_sum(), 3 * 1e-7 + 1e-3);
}

TEST(MetricsHistogram, OverflowClampsToLastBoundary) {
  met::Histogram h;
  h.observe(5000.0);  // > 1000 s: overflow bucket
  EXPECT_EQ(h.bucket_count(met::kTimeBucketCount), 1U);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantized_max(), 1000.0);
}

TEST(MetricsHistogram, EmptyIsAllZero) {
  const met::Histogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantized_min(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantized_max(), 0.0);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, LabelSetIsSortedAndEscaped) {
  const met::LabelSet labels{{"method", "Spa\"den"}, {"device", "L40"}};
  EXPECT_EQ(labels.prometheus(), "{device=\"L40\",method=\"Spa\\\"den\"}");
}

TEST(MetricsRegistry, JsonGoldenIsRegistrationOrderIndependent) {
  // Register in reverse alphabetical order; the export must still be sorted
  // and byte-stable (the whole determinism story hangs on this).
  met::MetricsRegistry reg;
  reg.counter("z_total").inc(2);
  reg.counter("a_total").inc(1);
  EXPECT_EQ(reg.json(/*include_host=*/false, /*pretty=*/false),
            "{\"schema\":\"spaden-metrics-v1\",\"metrics\":["
            "{\"name\":\"a_total\",\"type\":\"counter\",\"value\":1},"
            "{\"name\":\"z_total\",\"type\":\"counter\",\"value\":2}]}\n");
}

TEST(MetricsRegistry, HistogramJsonGolden) {
  met::MetricsRegistry reg;
  reg.histogram("lat_seconds", {{"m", "x"}}).observe(1e-7);
  EXPECT_EQ(reg.json(false, false),
            "{\"schema\":\"spaden-metrics-v1\",\"metrics\":["
            "{\"name\":\"lat_seconds\",\"type\":\"histogram\","
            "\"labels\":{\"m\":\"x\"},"
            "\"count\":1,\"sum\":1e-07,\"min\":1e-07,\"p50\":1e-07,"
            "\"p90\":1e-07,\"p99\":1e-07,\"max\":1e-07,"
            "\"buckets\":[{\"le\":1e-07,\"count\":1}]}]}\n");
}

TEST(MetricsRegistry, PrometheusExposition) {
  met::MetricsRegistry reg;
  reg.counter("runs_total", {{"method", "csr"}}, "Total runs").inc(3);
  reg.histogram("lat_seconds").observe(2e-6);
  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("# HELP runs_total Total runs\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE runs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("runs_total{method=\"csr\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);
}

TEST(MetricsRegistry, HostMetricsAreSegregated) {
  met::MetricsRegistry reg;
  reg.counter("spaden_runs_total").inc();
  reg.gauge("host_warps_per_sec").set(123.0);
  reg.histogram("spaden_convert_host_seconds").observe(1e-3);
  EXPECT_TRUE(met::MetricsRegistry::is_host_metric("host_warps_per_sec"));
  EXPECT_TRUE(met::MetricsRegistry::is_host_metric("spaden_convert_host_seconds"));
  EXPECT_FALSE(met::MetricsRegistry::is_host_metric("spaden_runs_total"));
  const std::string det = reg.json(/*include_host=*/false);
  EXPECT_EQ(det.find("host"), std::string::npos);
  EXPECT_NE(reg.json(true).find("host_warps_per_sec"), std::string::npos);
  EXPECT_EQ(reg.prometheus(/*include_host=*/false).find("host_warps_per_sec"),
            std::string::npos);
}

TEST(MetricsRegistry, TypeConflictThrows) {
  met::MetricsRegistry reg;
  reg.counter("x_total").inc();
  EXPECT_THROW(reg.gauge("x_total"), Error);
}

TEST(MetricsRegistry, MergeAddsCountersAndBuckets) {
  met::MetricsRegistry a;
  met::MetricsRegistry b;
  a.counter("runs_total").inc(2);
  b.counter("runs_total").inc(3);
  a.histogram("lat_seconds").observe(1e-6);
  b.histogram("lat_seconds").observe(1e-6);
  b.histogram("lat_seconds").observe(1e-2);
  b.gauge("temp").set(7.0);
  a.merge(b);
  EXPECT_EQ(a.counter("runs_total").value(), 5U);
  EXPECT_EQ(a.histogram("lat_seconds").count(), 3U);
  EXPECT_DOUBLE_EQ(a.histogram("lat_seconds").quantile(0.5), 1e-6);
  EXPECT_DOUBLE_EQ(a.gauge("temp").value(), 7.0);
}

// ---------------------------------------------------------------- telemetry

TEST(Telemetry, SpanTreeAndPhaseHistograms) {
  Telemetry tel;
  tel.set_label("method", "csr");
  const int outer = tel.begin_span("multiply");
  const int inner = tel.begin_span("upload");
  tel.end_span(inner, 0.25);
  tel.end_span(outer, 1.0, 2e-6);
  ASSERT_EQ(tel.spans().size(), 2U);
  EXPECT_EQ(tel.spans()[0].name, "multiply");
  EXPECT_EQ(tel.spans()[0].parent, -1);
  EXPECT_EQ(tel.spans()[1].parent, outer);
  EXPECT_EQ(tel.spans()[1].depth, 1);
  EXPECT_FALSE(tel.spans()[0].open);
  EXPECT_DOUBLE_EQ(tel.spans()[0].modeled_seconds, 2e-6);
  EXPECT_EQ(tel.metrics().histogram("spaden_multiply_modeled_seconds",
                                    {{"method", "csr"}})
                .count(),
            1U);
  EXPECT_EQ(tel.metrics().histogram("spaden_upload_host_seconds", {{"method", "csr"}})
                .count(),
            1U);
}

TEST(Telemetry, ScopedSpanWorksWithoutTelemetry) {
  // The null path is how PrepInfo gets its seconds with telemetry disabled.
  ScopedSpan span(nullptr, "convert");
  const double seconds = span.close();
  EXPECT_GE(seconds, 0.0);
  EXPECT_DOUBLE_EQ(span.close(), seconds);  // idempotent
}

/// The stitched trace of one profiled two-phase launch (a "load" gather,
/// then a "compute" range of FMAs; two warps) on each device of a
/// two-device L40 group at one simulator thread, under a root span closed
/// at 1 ms host time.
std::string two_device_trace() {
  sim::DeviceGroup group(sim::l40(), 2);
  group.set_sim_threads(1);
  group.set_sched(sim::SchedConfig{sim::SchedPolicy::RoundRobin, 0});
  group.set_shared_l2(true);
  group.set_profile(true);
  group.set_launch_log(true);
  Telemetry tel;
  const int root = tel.begin_span("multiply");
  for (int d = 0; d < group.size(); ++d) {
    sim::Device& device = group.device(d);
    auto src = device.memory().upload(std::vector<float>(2 * sim::kWarpSize, 1.0f), "src");
    (void)device.launch("two_phase", 2, [&](sim::WarpCtx& ctx, std::uint64_t w) {
      ctx.range_push("load");
      sim::Lanes<std::uint32_t> idx;
      for (int lane = 0; lane < sim::kWarpSize; ++lane) {
        idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(w) * sim::kWarpSize +
                                              static_cast<std::uint32_t>(lane);
      }
      (void)ctx.gather(src.cspan(), idx);
      ctx.range_pop();
      ctx.range_push("compute");
      ctx.charge(sim::OpClass::Fma, 8 * sim::kWarpSize);
      ctx.range_pop();
    });
  }
  tel.record_launches(group);
  tel.end_span(root, 1e-3);
  return tel.chrome_trace_json();
}

TEST(Telemetry, StitchedTraceBytesArePinned) {
  // Every byte of this trace is a function of the modeled counters and the
  // fixed root span, so it is pinned whole: engine spans at pid 0, each
  // device's slices at pid 1 + device inside its launch span, args and
  // otherData. Each "compute" range is zero wide: its ALU work hides behind
  // the warp's memory time, and a range ends where the warp's cumulative
  // component time does.
  const std::string expected =
      R"js({"traceEvents":[{"name":"process_name","ph":"M","pid":0)js"
      R"js(,"args":{"name":"spaden engine (host)"}},)js"
      R"js({"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"engine phases"}},)js"
      R"js({"name":"process_name","ph":"M","pid":1)js"
      R"js(,"args":{"name":"gpusim device (modeled)"}},)js"
      R"js({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"virtual SM 0"}},)js"
      R"js({"name":"process_name","ph":"M","pid":2)js"
      R"js(,"args":{"name":"gpusim device 1 (modeled)"}},)js"
      R"js({"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"virtual SM 0"}},)js"
      R"js({"name":"multiply","ph":"X","pid":0,"tid":0,"ts":0,"dur":1000,"args":{"span":0)js"
      R"js(,"clock":"host"}},)js"
      R"js({"name":"two_phase","ph":"X","pid":0,"tid":0,"ts":0,"dur":0.5841481481481481)js"
      R"js(,"args":{"span":1,"clock":"modeled"}},)js"
      R"js({"name":"load","ph":"X","pid":1,"tid":0,"ts":0,"dur":0.04207407407407407)js"
      R"js(,"args":{"warp":0,"clock":"modeled"}},)js"
      R"js({"name":"compute","ph":"X","pid":1,"tid":0,"ts":0.04207407407407407)js"
      R"js(,"dur":0,"args":{"warp":0,"clock":"modeled"}},)js"
      R"js({"name":"two_phase","ph":"X","pid":1,"tid":0,"ts":0,"dur":0.04207407407407407)js"
      R"js(,"args":{"warp":0,"clock":"modeled"}},)js"
      R"js({"name":"load","ph":"X","pid":1,"tid":0,"ts":0.04207407407407407)js"
      R"js(,"dur":0.04207407407407407,"args":{"warp":1,"clock":"modeled"}},)js"
      R"js({"name":"compute","ph":"X","pid":1,"tid":0,"ts":0.08414814814814814)js"
      R"js(,"dur":0,"args":{"warp":1,"clock":"modeled"}},)js"
      R"js({"name":"two_phase","ph":"X","pid":1,"tid":0,"ts":0.04207407407407407)js"
      R"js(,"dur":0.04207407407407407,"args":{"warp":1,"clock":"modeled"}},)js"
      R"js({"name":"two_phase","ph":"X","pid":0,"tid":0,"ts":0.5841481481481481)js"
      R"js(,"dur":0.5841481481481481,"args":{"span":2,"clock":"modeled"}},)js"
      R"js({"name":"load","ph":"X","pid":2,"tid":0,"ts":0.5841481481481481)js"
      R"js(,"dur":0.04207407407407407,"args":{"warp":0,"clock":"modeled"}},)js"
      R"js({"name":"compute","ph":"X","pid":2,"tid":0,"ts":0.6262222222222221)js"
      R"js(,"dur":0,"args":{"warp":0,"clock":"modeled"}},)js"
      R"js({"name":"two_phase","ph":"X","pid":2,"tid":0,"ts":0.5841481481481481)js"
      R"js(,"dur":0.04207407407407407,"args":{"warp":0,"clock":"modeled"}},)js"
      R"js({"name":"load","ph":"X","pid":2,"tid":0,"ts":0.6262222222222221)js"
      R"js(,"dur":0.04207407407407407,"args":{"warp":1,"clock":"modeled"}},)js"
      R"js({"name":"compute","ph":"X","pid":2,"tid":0,"ts":0.6682962962962962)js"
      R"js(,"dur":0,"args":{"warp":1,"clock":"modeled"}},)js"
      R"js({"name":"two_phase","ph":"X","pid":2,"tid":0,"ts":0.6262222222222221)js"
      R"js(,"dur":0.04207407407407407,"args":{"warp":1,"clock":"modeled"}}])js"
      R"js(,"displayTimeUnit":"ms","otherData":{"generator":"spaden-telemetry")js"
      R"js(,"schema":"spaden-metrics-v1"}})js"
      "\n";
  EXPECT_EQ(two_device_trace(), expected);
}

// ------------------------------------------------------------------- engine

mat::Csr test_matrix() {
  return mat::Csr::from_coo(mat::random_uniform(400, 400, 9000, 13));
}

EngineOptions base_options() {
  EngineOptions o;
  o.method = kern::Method::CusparseCsr;
  o.sim_threads = 1;
  // Pin everything env-sensitive so the byte-compare tests mean what they
  // say regardless of SPADEN_* in the environment.
  o.sched = sim::SchedConfig{sim::SchedPolicy::Serial, 0};
  o.shared_l2 = false;  // shared-L2 counters wobble at T>1 (documented)
  o.sanitize = false;
  o.profile = false;
  o.verify_format = false;
  o.telemetry = true;
  return o;
}

std::string deterministic_metrics(const EngineOptions& options, int iters = 3) {
  const mat::Csr a = test_matrix();
  SpmvEngine engine(a, options);
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  for (int i = 0; i < iters; ++i) {
    (void)engine.multiply(x, y);
  }
  return engine.telemetry()->metrics().json(/*include_host=*/false);
}

TEST(EngineTelemetry, RecordsConvertSpanAsPrepSeconds) {
  const mat::Csr a = test_matrix();
  EngineOptions options = base_options();
  options.verify_format = true;
  SpmvEngine engine(a, options);
  const Telemetry* tel = engine.telemetry();
  ASSERT_NE(tel, nullptr);
  ASSERT_FALSE(tel->spans().empty());
  EXPECT_EQ(tel->spans()[0].name, "convert");
  // PrepInfo's single source of truth IS the convert span.
  EXPECT_DOUBLE_EQ(tel->spans()[0].host_seconds, engine.prep().seconds);
  EXPECT_EQ(tel->spans()[1].name, "verify_format");
  EXPECT_NE(tel->metrics_prometheus().find(
                "spaden_convert_host_seconds_count{device=\"L40\",method=\"cuSPARSE "
                "CSR\"} 1\n"),
            std::string::npos);
}

TEST(EngineTelemetry, SpanTreePerMultiply) {
  const mat::Csr a = test_matrix();
  SpmvEngine engine(a, base_options());
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  (void)engine.multiply(x, y);
  (void)engine.multiply(x, y);
  const Telemetry* tel = engine.telemetry();
  int multiplies = 0;
  int launches = 0;
  for (const SpanRecord& s : tel->spans()) {
    EXPECT_FALSE(s.open);
    if (s.name == "multiply") {
      ++multiplies;
      EXPECT_EQ(s.parent, -1);
      EXPECT_GE(s.modeled_seconds, 0.0);
    }
    if (s.name == "upload" || s.name == "download" || s.name == "verify") {
      ASSERT_GE(s.parent, 0);
      EXPECT_EQ(tel->spans()[static_cast<std::size_t>(s.parent)].name, "multiply");
    }
    if (s.modeled_seconds >= 0 && s.name != "multiply") {
      ++launches;  // launch spans are the only other modeled spans
    }
  }
  EXPECT_EQ(multiplies, 2);
  EXPECT_GE(launches, 2);  // >= one launch per multiply
  const std::string prom = tel->metrics_prometheus();
  EXPECT_NE(
      prom.find("spaden_multiplies_total{device=\"L40\",method=\"cuSPARSE CSR\"} 2\n"),
      std::string::npos);
  EXPECT_NE(prom.find("spaden_launches_total{device=\"L40\",method=\"cuSPARSE CSR\"} " +
                      std::to_string(launches) + "\n"),
            std::string::npos);
}

/// One line per multiply root span: its name, then its children in order,
/// launch spans written as "launch@<device>".
std::vector<std::string> multiply_span_tree(const Telemetry& tel) {
  const std::vector<SpanRecord>& spans = tel.spans();
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent < 0 && (s.name == "multiply" || s.name == "multiply_batch")) {
      lines.push_back(s.name + ":");
    } else if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].parent < 0) {
      lines.back() += " " + (s.modeled_seconds >= 0 ? "launch@" + std::to_string(s.device)
                                                    : s.name);
    }
  }
  return lines;
}

TEST(EngineTelemetry, DocumentedSpanTreeAtEveryDeviceCount) {
  // docs/telemetry.md: multiply -> verify (first call only), upload, one
  // launch per device tagged with its index, download -- at every device
  // count. A repeated nonzero x generation with the same x skips the
  // upload; a batch of k > 1 roots at multiply_batch, one of k = 1 is a
  // multiply.
  const mat::Csr a = test_matrix();
  const std::vector<float> x(a.ncols, 1.0f);
  for (const int devices : {1, 2}) {
    SCOPED_TRACE(devices);
    EngineOptions options = base_options();
    options.num_devices = devices;
    SpmvEngine engine(a, options);
    std::vector<float> y;
    (void)engine.multiply(x, y, /*x_generation=*/7);
    (void)engine.multiply(x, y, /*x_generation=*/7);
    std::string launches;
    for (int d = 0; d < devices; ++d) {
      launches += " launch@" + std::to_string(d);
    }
    std::vector<std::string> want = {
        "multiply: verify upload" + launches + " download",
        "multiply:" + launches + " download",
    };
    if (devices == 1) {
      std::vector<std::vector<float>> ys;
      (void)engine.multiply_batch(std::vector<std::vector<float>>(3, x), ys);
      (void)engine.multiply_batch(std::vector<std::vector<float>>(1, x), ys);
      want.push_back("multiply_batch: upload" + launches + " download");
      want.push_back("multiply: upload" + launches + " download");
    }
    EXPECT_EQ(multiply_span_tree(*engine.telemetry()), want);
  }
}

TEST(EngineTelemetry, ModeledMetricsByteIdenticalAcrossSimThreads) {
  EngineOptions serial = base_options();
  EngineOptions threaded = base_options();
  threaded.sim_threads = 4;
  EXPECT_EQ(deterministic_metrics(serial), deterministic_metrics(threaded));
}

TEST(EngineTelemetry, ModeledMetricsByteIdenticalAcrossSchedPolicies) {
  // serial vs rr modeled seconds drift ~1% — well inside one 10^(1/4) log
  // bucket, so the quantized export must not move.
  EngineOptions serial = base_options();
  EngineOptions rr = base_options();
  rr.sched = sim::SchedConfig{sim::SchedPolicy::RoundRobin, 0};
  EXPECT_EQ(deterministic_metrics(serial), deterministic_metrics(rr));
}

TEST(EngineTelemetry, ZeroCostWhenDisabled) {
  const mat::Csr a = test_matrix();
  EngineOptions on = base_options();
  EngineOptions off = base_options();
  off.telemetry = false;
  SpmvEngine engine_on(a, on);
  SpmvEngine engine_off(a, off);
  EXPECT_EQ(engine_off.telemetry(), nullptr);
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y_on;
  std::vector<float> y_off;
  for (int i = 0; i < 2; ++i) {
    const SpmvResult r_on = engine_on.multiply(x, y_on);
    const SpmvResult r_off = engine_off.multiply(x, y_off);
    // Bit-identical modeled time and numerics, telemetry on or off.
    EXPECT_EQ(r_on.modeled_seconds, r_off.modeled_seconds);
    EXPECT_EQ(y_on, y_off);
  }
}

TEST(EngineTelemetry, StitchedTraceNestsDeviceSlicesInLaunchSpans) {
  const mat::Csr a = test_matrix();
  for (const int devices : {1, 2}) {
    SCOPED_TRACE(devices);
    EngineOptions options = base_options();
    options.profile = true;  // the stitched trace nests the profiler timeline
    options.num_devices = devices;
    SpmvEngine engine(a, options);
    std::vector<float> x(a.ncols, 1.0f);
    std::vector<float> y;
    const SpmvResult r = engine.multiply(x, y);
    ASSERT_FALSE(r.profiles.empty());
    const Telemetry* tel = engine.telemetry();
    const std::vector<sim::TraceEvent> events = tel->build_trace();

    // Index engine spans by span id; then check every event's containment.
    std::vector<const sim::TraceEvent*> by_span(tel->spans().size(), nullptr);
    for (const sim::TraceEvent& e : events) {
      if (e.pid == sim::kEnginePid) {
        by_span[static_cast<std::size_t>(e.span)] = &e;
      }
    }
    constexpr double kSlackUs = 1e-6;
    std::vector<int> device_events(static_cast<std::size_t>(devices), 0);
    for (const sim::TraceEvent& e : events) {
      if (e.pid >= sim::kDevicePid) {
        // device slice inside its launch span
        ++device_events.at(static_cast<std::size_t>(e.pid - sim::kDevicePid));
        const sim::TraceEvent* launch = by_span[static_cast<std::size_t>(e.span)];
        ASSERT_NE(launch, nullptr);
        EXPECT_GE(e.ts_us, launch->ts_us - kSlackUs);
        EXPECT_LE(e.ts_us + e.dur_us, launch->ts_us + launch->dur_us + kSlackUs);
      } else if (tel->spans()[static_cast<std::size_t>(e.span)].parent >= 0) {
        // engine child span inside its parent span
        const int parent = tel->spans()[static_cast<std::size_t>(e.span)].parent;
        const sim::TraceEvent* p = by_span[static_cast<std::size_t>(parent)];
        ASSERT_NE(p, nullptr);
        EXPECT_GE(e.ts_us, p->ts_us - kSlackUs);
        EXPECT_LE(e.ts_us + e.dur_us, p->ts_us + p->dur_us + kSlackUs);
      }
    }
    for (int d = 0; d < devices; ++d) {
      EXPECT_GT(device_events[static_cast<std::size_t>(d)], 0) << "device " << d;
    }

    const std::string json = tel->chrome_trace_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("spaden-telemetry"), std::string::npos);
    EXPECT_NE(json.find("virtual SM 0"), std::string::npos);
  }
}

TEST(EngineTelemetry, MetricsJsonCarriesSpanAggregates) {
  const mat::Csr a = test_matrix();
  SpmvEngine engine(a, base_options());
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  (void)engine.multiply(x, y);
  const std::string full = engine.telemetry()->metrics_json(/*include_host=*/true);
  EXPECT_NE(full.find("\"schema\": \"spaden-metrics-v1\""), std::string::npos);
  EXPECT_NE(full.find("\"spans\""), std::string::npos);
  EXPECT_NE(full.find("\"host_metrics\""), std::string::npos);
  // The deterministic form carries neither exact span seconds nor host series.
  const std::string det = engine.telemetry()->metrics_json(/*include_host=*/false);
  EXPECT_EQ(det.find("\"spans\""), std::string::npos);
  EXPECT_EQ(det.find("host"), std::string::npos);
}

}  // namespace
}  // namespace spaden
