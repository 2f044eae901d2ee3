// spaden — command-line front end for the library.
//
//   spaden info <matrix>                 structure + format recommendation
//   spaden spmv <matrix> [--method M] [--device l40|v100] [--iters N] [--threads T]
//               [--sched serial|rr[:window]] [--sancheck]
//               [--profile out.json] [--trace out.json]
//               [--metrics out.prom] [--metrics-json out.json]
//   spaden verify <matrix>               spaden-verify every format conversion
//   spaden convert <in.mtx> <out.mtx> [--reorder rcm|degree]
//   spaden serve [--replay spec.json]    batched SpMV serving replay (spaden-serve)
//   spaden datasets                      list the Table 1 registry
//   spaden probe                         print the §3 reverse-engineering grids
//
// <matrix> is either a path to a Matrix Market file or the name of a
// Table 1 dataset (synthesized at --scale, default 0.25).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/recommend.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/spaden.hpp"
#include "matrix/matrix.hpp"
#include "matrix/verify.hpp"
#include "serve/replay.hpp"
#include "tensorcore/probe.hpp"

namespace {

using namespace spaden;

struct Args {
  std::vector<std::string> positional;
  std::string method;
  std::string device = "l40";
  std::string reorder;
  double scale = 0.25;
  int iters = 1;
  int threads = 0;  // 0 = SPADEN_SIM_THREADS / hardware default
  int devices = 1;  // --devices N
  std::string sched;  // --sched serial|rr[:window]; "" = SPADEN_SIM_SCHED
  bool sancheck = false;
  std::string profile_out;  // --profile FILE: spaden-prof JSON report
  std::string trace_out;    // --trace FILE: stitched host+device chrome trace
  std::string metrics_out;       // --metrics FILE: Prometheus exposition
  std::string metrics_json_out;  // --metrics-json FILE: spaden-metrics-v1 JSON
  std::string replay_spec;       // --replay FILE: serve replay spec JSON
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> std::string {
      SPADEN_REQUIRE(i + 1 < argc, "missing value for %s", flag);
      return argv[++i];
    };
    auto next_long = [&](const char* flag) {
      const std::string v = next(flag);
      const std::optional<long> parsed = parse_long(v.c_str());
      SPADEN_REQUIRE(parsed.has_value(), "%s expects an integer, got '%s'", flag, v.c_str());
      return static_cast<int>(*parsed);
    };
    if (a == "--method") {
      args.method = next("--method");
    } else if (a == "--device") {
      args.device = next("--device");
    } else if (a == "--reorder") {
      args.reorder = next("--reorder");
    } else if (a == "--scale") {
      const std::string v = next("--scale");
      const std::optional<double> parsed = parse_double(v.c_str());
      SPADEN_REQUIRE(parsed.has_value(), "--scale expects a number, got '%s'", v.c_str());
      args.scale = *parsed;
    } else if (a == "--iters") {
      args.iters = next_long("--iters");
    } else if (a == "--threads") {
      args.threads = next_long("--threads");
    } else if (a == "--devices") {
      args.devices = next_long("--devices");
      SPADEN_REQUIRE(args.devices >= 1, "--devices expects >= 1 device, got %d",
                     args.devices);
    } else if (a == "--sched") {
      args.sched = next("--sched");
    } else if (a == "--sancheck") {
      args.sancheck = true;
    } else if (a == "--profile") {
      args.profile_out = next("--profile");
    } else if (a == "--trace") {
      args.trace_out = next("--trace");
    } else if (a == "--metrics") {
      args.metrics_out = next("--metrics");
    } else if (a == "--metrics-json") {
      args.metrics_json_out = next("--metrics-json");
    } else if (a == "--replay") {
      args.replay_spec = next("--replay");
    } else if (a.rfind("--", 0) == 0) {
      throw Error(strfmt("unknown option '%s'", a.c_str()));
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

mat::Csr load_matrix(const std::string& name, double scale) {
  if (name.size() > 4 && name.substr(name.size() - 4) == ".mtx") {
    return mat::read_matrix_market_file(name);
  }
  return mat::load_dataset(name, scale);
}

kern::Method method_by_name(const std::string& name) {
  for (const kern::Method m : kern::all_methods()) {
    if (name == std::string(kern::method_name(m))) {
      return m;
    }
  }
  // Also accept compact spellings.
  if (name == "spaden") {
    return kern::Method::Spaden;
  }
  if (name == "csr") {
    return kern::Method::CusparseCsr;
  }
  if (name == "bsr") {
    return kern::Method::CusparseBsr;
  }
  if (name == "dasp") {
    return kern::Method::Dasp;
  }
  throw Error(strfmt("unknown method '%s'", name.c_str()));
}

int cmd_info(const Args& args) {
  SPADEN_REQUIRE(args.positional.size() >= 2, "usage: spaden info <matrix>");
  const mat::Csr a = load_matrix(args.positional[1], args.scale);
  const mat::BitBsr bb = mat::BitBsr::from_csr(a);
  const auto stats = mat::compute_block_stats(bb);
  std::printf("matrix: %u x %u, %zu nonzeros (%.2f per row), bandwidth %u\n", a.nrows,
              a.ncols, a.nnz(), a.avg_degree(), mat::bandwidth(a));
  std::printf("bitBSR: Bnrow %u, Bnnz %zu, %.1f nnz/block, blocks %0.f%%/%0.f%%/%0.f%% "
              "sparse/medium/dense\n\n",
              bb.bnrow(), bb.bnnz(), stats.avg_block_nnz(), 100.0 * stats.sparse_ratio(),
              100.0 * stats.medium_ratio(), 100.0 * stats.dense_ratio());
  const auto rec = analysis::recommend(a, sim::device_by_name(args.device));
  std::fputs(rec.summary().c_str(), stdout);
  return 0;
}

int cmd_spmv(const Args& args) {
  SPADEN_REQUIRE(args.positional.size() >= 2, "usage: spaden spmv <matrix> [--method M]");
  const mat::Csr a = load_matrix(args.positional[1], args.scale);
  EngineOptions options;
  options.device = sim::device_by_name(args.device);
  options.sim_threads = args.threads;
  options.num_devices = args.devices;
  if (!args.sched.empty()) {
    options.sched = sim::parse_sched(args.sched, "--sched");
  }
  options.sanitize = options.sanitize || args.sancheck;
  // Any telemetry output implies telemetry; the stitched trace additionally
  // needs the profiler's device timeline to nest under the launch spans.
  const bool want_telemetry =
      !args.metrics_out.empty() || !args.metrics_json_out.empty() || !args.trace_out.empty();
  options.telemetry = options.telemetry || want_telemetry;
  options.profile = !args.profile_out.empty() || !args.trace_out.empty();
  if (!args.method.empty()) {
    options.method = method_by_name(args.method);
  }
  SpmvEngine engine(a, options);
  std::printf("method %s on %s; preprocessing %.2f ms, footprint %.2f B/nnz\n",
              std::string(kern::method_name(engine.chosen_method())).c_str(),
              engine.device().name.c_str(), engine.prep().seconds * 1e3,
              engine.prep().bytes_per_nnz);
  if (engine.num_devices() > 1) {
    std::printf("row-sharded across %d devices (link preset nvlink)\n", engine.num_devices());
  }
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  std::uint64_t findings = 0;
  std::vector<sim::ProfileReport> profiles;  // last iteration's launches
  for (int i = 0; i < std::max(args.iters, 1); ++i) {
    SpmvResult r = engine.multiply(x, y);
    std::printf("iter %d: %.2f us modeled, %.1f GFLOP/s (bound by %s)\n", i,
                r.modeled_seconds * 1e6, r.gflops, r.time.bound_by());
    if (engine.num_devices() > 1) {
      std::printf("        t_comm %.2f us on the critical device\n", r.time.t_comm * 1e6);
    }
    findings += r.sanitizer.total();
    if (options.sanitize && i == 0) {
      std::fputs(r.sanitizer.summary().c_str(), stdout);
    }
    profiles = std::move(r.profiles);
  }
  if (options.profile) {
    for (const auto& report : profiles) {
      std::fputs(report.summary().c_str(), stdout);
    }
  }
  if (!args.profile_out.empty()) {
    JsonWriter w;
    w.begin_object();
    w.field("schema", sim::kProfSchema);
    w.field("matrix", args.positional[1]);
    w.field("method", std::string(kern::method_name(engine.chosen_method())));
    w.key("launches");
    w.begin_array();
    for (const auto& report : profiles) {
      report.to_json(w);
    }
    w.end_array();
    w.end_object();
    write_text_file(args.profile_out, w.take());
    std::printf("wrote profile report %s (%zu launches)\n", args.profile_out.c_str(),
                profiles.size());
  }
  if (const Telemetry* tel = engine.telemetry(); tel != nullptr) {
    if (!args.metrics_out.empty()) {
      write_text_file(args.metrics_out, tel->metrics_prometheus());
      std::printf("wrote metrics exposition %s (%zu families)\n", args.metrics_out.c_str(),
                  tel->metrics().family_count());
    }
    if (!args.metrics_json_out.empty()) {
      write_text_file(args.metrics_json_out, tel->metrics_json());
      std::printf("wrote metrics JSON %s (schema %s)\n", args.metrics_json_out.c_str(),
                  met::kMetricsSchema);
    }
    if (!args.trace_out.empty()) {
      write_text_file(args.trace_out, tel->chrome_trace_json());
      std::printf("wrote chrome trace %s (%zu spans; open via chrome://tracing)\n",
                  args.trace_out.c_str(), tel->spans().size());
    }
  }
  return findings == 0 ? 0 : 3;
}

int cmd_verify(const Args& args) {
  SPADEN_REQUIRE(args.positional.size() >= 2, "usage: spaden verify <matrix>");
  const mat::Csr a = load_matrix(args.positional[1], args.scale);
  std::uint64_t violations = 0;
  auto run = [&](const san::FormatReport& report) {
    std::fputs(report.summary().c_str(), stdout);
    violations += report.violation_count;
  };
  run(san::check_format(a));
  run(san::check_format(a.to_coo()));
  run(san::check_format(mat::Bsr::from_csr(a)));
  run(san::check_format(mat::BitBsr::from_csr(a)));
  run(san::check_format(mat::BitBsr16::from_csr(a)));
  if (violations != 0) {
    std::printf("spaden-verify: %llu violation(s) total\n",
                static_cast<unsigned long long>(violations));
    return 4;
  }
  return 0;
}

int cmd_convert(const Args& args) {
  SPADEN_REQUIRE(args.positional.size() >= 3,
                 "usage: spaden convert <in> <out.mtx> [--reorder rcm|degree]");
  mat::Csr a = load_matrix(args.positional[1], args.scale);
  if (!args.reorder.empty()) {
    const mat::Permutation perm = args.reorder == "rcm" ? mat::reverse_cuthill_mckee(a)
                                  : args.reorder == "degree"
                                      ? mat::degree_order(a)
                                      : throw Error(strfmt("unknown ordering '%s'",
                                                           args.reorder.c_str()));
    const mat::Index bw_before = mat::bandwidth(a);
    a = mat::permute_symmetric(a, perm);
    std::printf("reorder %s: bandwidth %u -> %u\n", args.reorder.c_str(), bw_before,
                mat::bandwidth(a));
  }
  mat::write_matrix_market_file(args.positional[2], a.to_coo());
  std::printf("wrote %s (%u x %u, %zu nnz)\n", args.positional[2].c_str(), a.nrows, a.ncols,
              a.nnz());
  return 0;
}

int cmd_datasets() {
  std::printf("%-14s %10s %12s %8s %10s  %s\n", "name", "nrow", "nnz", "Bnrow", "Bnnz",
              "in scope");
  for (const auto& d : mat::datasets()) {
    std::printf("%-14s %10u %12zu %8u %10zu  %s\n", d.name().c_str(), d.profile.nrow,
                d.profile.nnz, d.expected_bnrow(), d.profile.bnnz,
                d.meets_criteria ? "yes" : "no");
  }
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ReplaySpec spec;
  if (!args.replay_spec.empty()) {
    std::ifstream in(args.replay_spec);
    SPADEN_REQUIRE(in.good(), "cannot open replay spec '%s'", args.replay_spec.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    spec = serve::parse_replay_spec(ss.str());
  }
  const bool want_telemetry =
      !args.metrics_out.empty() || !args.metrics_json_out.empty() || !args.trace_out.empty();

  serve::RegistryConfig rcfg;
  rcfg.engine.telemetry = rcfg.engine.telemetry || want_telemetry;
  rcfg.engine.profile = !args.trace_out.empty();

  // Deterministic virtual-time replay: batched vs unbatched, demux-checked.
  serve::MatrixRegistry registry(rcfg);
  const serve::ReplayResult r = serve::run_replay(spec, &registry);
  met::MetricsRegistry metrics = r.metrics;  // histogram() needs mutable access

  Table table({"Matrix", "Method", "Mode", "Requests", "Mean width", "p50", "p99"});
  const auto add_rows = [&](const serve::ServeReport& report, const char* mode) {
    for (const auto& [h, agg] : report.per_matrix) {
      met::LabelSet labels{
          {"matrix", agg.matrix}, {"method", agg.method}, {"mode", mode}};
      const met::Histogram& lat =
          metrics.histogram("spaden_serve_latency_seconds", labels);
      table.add_row({agg.matrix, agg.method, mode, std::to_string(agg.requests),
                     fmt_double(static_cast<double>(agg.requests) /
                                    static_cast<double>(agg.batches),
                                2),
                     fmt_double(lat.quantile(0.5) * 1e6, 1) + " us",
                     fmt_double(lat.quantile(0.99) * 1e6, 1) + " us"});
      (void)h;
    }
  };
  add_rows(r.batched, "batched");
  add_rows(r.unbatched, "unbatched");
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nrequests/s batched %s, unbatched %s (%.2fx); TC utilization %.1f%% vs "
              "%.1f%% (%.2fx)\n",
              fmt_si(r.batched.requests_per_second).c_str(),
              fmt_si(r.unbatched.requests_per_second).c_str(), r.speedup,
              100.0 * r.batched.tc_utilization(), 100.0 * r.unbatched.tc_utilization(),
              r.tc_uplift);

  if (!args.metrics_out.empty()) {
    write_text_file(args.metrics_out, r.metrics_prometheus());
    std::printf("wrote metrics exposition %s\n", args.metrics_out.c_str());
  }
  if (!args.metrics_json_out.empty()) {
    write_text_file(args.metrics_json_out, r.metrics_json());
    std::printf("wrote metrics JSON %s\n", args.metrics_json_out.c_str());
  }
  if (!args.trace_out.empty()) {
    // Trace of the engine serving the first spec matrix (handle 1).
    if (const Telemetry* tel = registry.acquire(1).telemetry(); tel != nullptr) {
      write_text_file(args.trace_out, tel->chrome_trace_json());
      std::printf("wrote chrome trace %s (%zu spans)\n", args.trace_out.c_str(),
                  tel->spans().size());
    }
  }
  if (!r.demux_ok) {
    std::fprintf(stderr,
                 "serve: demux MISMATCH — %llu request(s) differ from sequential SpMV\n",
                 static_cast<unsigned long long>(r.mismatched_requests));
    return 5;
  }
  std::printf("demux check: batched results bit-identical to sequential SpMV\n");
  return 0;
}

int cmd_probe() {
  std::printf("thread layout (Figure 1):\n%s\nregister layout (Figure 2):\n%s",
              tc::render_grid(tc::probe_thread_layout(tc::FragUse::MatrixA)).c_str(),
              tc::render_grid(tc::probe_register_layout(tc::FragUse::MatrixA)).c_str());
  tc::verify_reverse_engineered_layout();
  std::printf("\nlayout verified against the paper's §3 observations.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    check_env_names();
    const Args args = parse(argc, argv);
    if (args.positional.empty()) {
      std::printf(
          "usage: spaden <info|spmv|verify|convert|serve|datasets|probe> ...\n"
          "  info <matrix>                     structure + format recommendation\n"
          "  spmv <matrix> [--method M] [--device l40|v100] [--iters N] [--threads T]\n"
          "                [--devices N]     row-shard across N simulated devices joined\n"
          "                                  by the modeled nvlink interconnect (default 1)\n"
          "                [--sched P]       warp scheduling: serial|rr[:window]\n"
          "                                  (default rr; serial = pre-recalibration mode)\n"
          "                [--sancheck]      run under spaden-sancheck (exit 3 on findings)\n"
          "                [--profile F.json] write the spaden-prof report (and print it)\n"
          "                [--trace F.json]   write the stitched host+device chrome trace\n"
          "                                   (implies telemetry + profile)\n"
          "                [--metrics F.prom] write the spaden-telemetry Prometheus\n"
          "                                   exposition (implies telemetry)\n"
          "                [--metrics-json F.json]  write spaden-metrics-v1 JSON\n"
          "  verify <matrix>                   run spaden-verify over every format\n"
          "                                    conversion (exit 4 on violations)\n"
          "  convert <in> <out.mtx> [--reorder rcm|degree]\n"
          "  serve [--replay spec.json]        replay a synthetic request stream through\n"
          "                                    the batched serving engine, batched vs\n"
          "                                    unbatched (exit 5 on demux mismatch);\n"
          "                                    honors --metrics/--metrics-json/--trace\n"
          "  datasets                          list the Table 1 registry\n"
          "  probe                             print the reverse-engineered layouts\n"
          "matrices: a .mtx path or a dataset name (--scale, default 0.25)\n");
      return 2;
    }
    const std::string& cmd = args.positional[0];
    if (cmd == "info") {
      return cmd_info(args);
    }
    if (cmd == "spmv") {
      return cmd_spmv(args);
    }
    if (cmd == "verify") {
      return cmd_verify(args);
    }
    if (cmd == "convert") {
      return cmd_convert(args);
    }
    if (cmd == "datasets") {
      return cmd_datasets();
    }
    if (cmd == "serve") {
      return cmd_serve(args);
    }
    if (cmd == "probe") {
      return cmd_probe();
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
