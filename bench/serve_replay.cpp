// spaden-serve workload replay bench: a seeded synthetic request stream
// (Poisson arrivals, Zipf tenant skew, Table-1 + R-MAT matrix mix) replayed
// batched and unbatched through the serving engine. Prints requests/s, the
// batch-width distribution, tensor-core-utilization uplift and modeled
// p50/p99 latencies, and writes BENCH_serve.json + METRICS_serve.{json,prom}
// so tools/perf_diff.py tracks serving throughput like every figure bench.
//
// Usage: serve_replay [spec.json]   (defaults to the built-in spec; a spec
// that leaves max_batch / window_us unset gets ServeConfig's 32 / 200 us).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "serve/replay.hpp"

using namespace spaden;

int main(int argc, char** argv) {
  serve::ReplaySpec spec;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "serve_replay: cannot open spec '%s'\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    spec = serve::parse_replay_spec(ss.str());
  }

  bench::print_banner("spaden-serve: workload replay (batched vs unbatched)",
                      spec.scale > 0 ? spec.scale : mat::bench_scale());
  bench::require_writable_output_dir();
  const serve::ReplayResult r = serve::run_replay(spec);

  Table table({"Matrix", "Mode", "Requests", "Batches", "Mean width", "GFLOPS"});
  const auto add_rows = [&](const serve::ServeReport& report, const char* mode) {
    for (const auto& [h, agg] : report.per_matrix) {
      (void)h;
      table.add_row({agg.matrix, mode, std::to_string(agg.requests),
                     std::to_string(agg.batches),
                     fmt_double(static_cast<double>(agg.requests) /
                                    static_cast<double>(agg.batches),
                                2),
                     fmt_double(agg.service_seconds > 0
                                    ? agg.useful_flops / agg.service_seconds / 1e9
                                    : 0.0,
                                1)});
    }
  };
  add_rows(r.batched, "batched");
  add_rows(r.unbatched, "unbatched");
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nBatch-width distribution (batched):\n");
  for (const auto& [width, n] : r.batched.batch_width_counts) {
    std::printf("  width %3d: %llu\n", width, static_cast<unsigned long long>(n));
  }
  std::printf("\nrequests/s  batched %s  unbatched %s  speedup %.2fx\n",
              fmt_si(r.batched.requests_per_second).c_str(),
              fmt_si(r.unbatched.requests_per_second).c_str(), r.speedup);
  std::printf("service     %.2fx requests per modeled device-busy second\n",
              r.service_speedup);
  std::printf("TC util     batched %.1f%%  unbatched %.1f%%  uplift %.2fx\n",
              100.0 * r.batched.tc_utilization(), 100.0 * r.unbatched.tc_utilization(),
              r.tc_uplift);
  std::printf("demux       %s (%llu mismatched)\n", r.demux_ok ? "bit-exact" : "MISMATCH",
              static_cast<unsigned long long>(r.mismatched_requests));

  const std::string base = bench::output_dir();
  write_text_file(base + "/BENCH_serve.json", r.bench_json);
  std::fprintf(stderr, "[json] wrote %s/BENCH_serve.json\n", base.c_str());
  if (default_telemetry()) {
    write_text_file(base + "/METRICS_serve.json", r.metrics_json());
    write_text_file(base + "/METRICS_serve.prom", r.metrics_prometheus());
    std::fprintf(stderr, "[json] wrote %s/METRICS_serve.{json,prom}\n", base.c_str());
  }
  return r.demux_ok ? 0 : 1;
}
