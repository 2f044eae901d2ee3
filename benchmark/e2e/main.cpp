// spaden-e2e: runs one workload and prints every metric as
// `name value unit`, then one JSON line {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (see benchmark/README.md for both lists).
//
//   spaden-e2e --workload suite-steady --seed 3 --seconds 8 --trace 0
//              [--out DIR] [--commit SHA] [--smoke]
//
// Exit status: 0 when every operation produced the right output, 1 when any
// was wrong or threw (the JSON line is still printed), 2 on bad usage or a
// set SPADEN_* variable (the run would not be the pinned configuration).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parse.hpp"
#include "e2e.hpp"

extern char** environ;

namespace spaden::e2e {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: always one of the samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (const double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> gflops_of(const Results& r, kern::Method m) {
  const auto it = r.gflops.find(m);
  return it != r.gflops.end() ? it->second : std::vector<double>{};
}

std::vector<Metric> end_to_end(const Results& r) {
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"host_round_s", median(r.round_s), "s"},
      {"host_rss_mb", peak_rss_mb(), "MB"},
      {"gflops.spaden", geomean(gflops_of(r, kern::Method::Spaden)), "GFLOP/s"},
      {"gflops.csr", geomean(gflops_of(r, kern::Method::CusparseCsr)), "GFLOP/s"},
      {"capacity_rps", ratio(r.ops, r.busy_s), "1/s"},
      {"latency_p50_us", percentile(r.latency_s, 50) * 1e6, "us"},
      {"latency_p90_us", percentile(r.latency_s, 90) * 1e6, "us"},
  };
}

/// Modeled-time shares: the binding throughput term of each operation (its
/// total minus the additive launch, stall and comm terms) plus those
/// additive terms, summed over the probes — the shares sum to 1.
std::vector<Metric> kernel_shares(const Results& r) {
  std::map<std::string, double> share;
  double total = 0;
  for (const Probe& p : r.probes) {
    const sim::TimeBreakdown& t = p.result.time;
    const std::pair<const char*, double> terms[] = {{"lsu", t.t_lsu},
                                                    {"l2", t.t_l2},
                                                    {"dram", t.t_dram},
                                                    {"cuda", t.t_cuda},
                                                    {"tc", t.t_tc}};
    const auto* bound =
        std::max_element(std::begin(terms), std::end(terms),
                         [](const auto& a, const auto& b) { return a.second < b.second; });
    share[bound->first] += t.total - t.t_launch - t.t_stall - t.t_comm;
    share["launch"] += t.t_launch;
    share["stall"] += t.t_stall;
    share["comm"] += t.t_comm;
    total += t.total;
  }
  std::vector<Metric> out;
  for (const char* k : {"lsu", "l2", "dram", "cuda", "tc", "launch", "stall", "comm"}) {
    out.push_back({std::string("kernels.share.") + k, ratio(share[k], total), "frac"});
  }
  return out;
}

/// Paper Fig. 8 phases of the Spaden launches, from profiler ranges.
std::vector<Metric> spaden_phases(const Results& r) {
  std::map<std::string, double> phase;
  double compute = 0;
  for (const sim::ProfileReport& rep : r.spaden_profiles) {
    compute += rep.time.total - rep.time.t_launch;
    for (const sim::RangeProfile& range : rep.ranges) {
      phase[range.name] += range.attributed;
    }
  }
  std::vector<Metric> out;
  for (const char* k : {"decode", "mma", "extract"}) {
    out.push_back(
        {std::string("kernels.spaden.") + k + "_frac", ratio(phase[k], compute), "frac"});
  }
  return out;
}

std::vector<Metric> per_layer(const Results& r) {
  std::vector<Metric> out = {
      {"matrix.generate_s", median(r.generate_s), "s"},
      {"matrix.convert_ns_per_nnz", ratio(r.prep_s * 1e9, r.prep_nnz), "ns/nnz"},
      {"matrix.bytes_per_nnz", ratio(r.footprint_bytes, r.prep_nnz), "B/nnz"},
      {"core.construct_s", median(r.construct_s), "s"},
      {"core.first_multiply_s", median(r.first_multiply_s), "s"},
  };
  double traced = 0;  // the parts add up to the traced rounds' wall time
  for (const auto& [key, seconds] : r.host_parts) {
    traced += seconds;
  }
  const auto part = [&](const char* key) {
    const auto it = r.host_parts.find(key);
    return it != r.host_parts.end() ? ratio(it->second, traced) : 0.0;
  };
  for (const char* key : {"bench.self", "serve.self", "serve.reprepare", "core.self",
                          "core.verify", "core.upload", "core.launch", "core.download"}) {
    out.push_back({std::string(key) + "_frac", part(key), "frac"});
  }
  out.push_back({"trace.round_s", median(r.traced_round_s), "s"});
  out.push_back({"trace.overhead_frac", ratio(median(r.traced_round_s), median(r.round_s)) - 1,
                 "frac"});

  for (Metric& m : kernel_shares(r)) {
    out.push_back(std::move(m));
  }
  for (Metric& m : spaden_phases(r)) {
    out.push_back(std::move(m));
  }
  out.push_back({"kernels.gflops_dasp", geomean(gflops_of(r, kern::Method::Dasp)), "GFLOP/s"});
  out.push_back({"kernels.scaling_x4", geomean(r.scaling_x4), "x"});
  out.push_back({"kernels.shard_imbalance", geomean(r.shard_imbalance), "x"});

  sim::KernelStats s;
  double nnz = 0;
  double mma_nnz = 0;
  double launch_host = 0;
  double warps_timed = 0;
  double mem_timed = 0;
  for (const Probe& p : r.probes) {
    s += p.result.stats;
    nnz += static_cast<double>(p.nnz);
    if (p.result.stats.tc_mma_m16n16k16 + p.result.stats.tc_mma_m8n8k4 > 0) {
      mma_nnz += static_cast<double>(p.nnz);
    }
    if (p.launch_host_s >= 0) {
      launch_host += p.launch_host_s;
      warps_timed += static_cast<double>(p.result.stats.warps_launched);
      mem_timed += static_cast<double>(p.result.stats.mem_instructions);
    }
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double sector_bytes = 32;
  out.push_back({"gpusim.wavefronts_per_nnz", ratio(d(s.wavefronts), nnz), "1/nnz"});
  out.push_back({"gpusim.l1_hit_frac",
                 ratio(d(s.l1_hit_bytes), d(s.l1_hit_bytes) + d(s.sectors) * sector_bytes),
                 "frac"});
  out.push_back({"gpusim.l2_hit_frac", ratio(d(s.l2_hit_bytes), d(s.l2_bytes())), "frac"});
  out.push_back({"gpusim.dram_bytes_per_nnz", ratio(d(s.dram_bytes), nnz), "B/nnz"});
  out.push_back({"gpusim.stall_cycles_per_warp",
                 ratio(d(s.exposed_stall_cycles), d(s.warps_launched)), "cycles/warp"});
  out.push_back(
      {"gpusim.remote_sector_frac", ratio(d(s.remote_sectors), d(s.sectors)), "frac"});
  out.push_back({"gpusim.comm_stall_cycles_per_warp",
                 ratio(d(s.comm_stall_cycles), d(s.warps_launched)), "cycles/warp"});
  out.push_back({"gpusim.host_ns_per_warp", ratio(launch_host * 1e9, warps_timed), "ns"});
  out.push_back({"gpusim.host_ns_per_mem_instr", ratio(launch_host * 1e9, mem_timed), "ns"});
  out.push_back({"tensorcore.mma_per_knnz",
                 ratio(d(s.tc_mma_m16n16k16 + s.tc_mma_m8n8k4), mma_nnz / 1000), "1/knnz"});
  out.push_back({"tensorcore.util", ratio(r.tc_useful_flops, r.tc_flops), "frac"});

  out.push_back({"serve.batch_width_mean", ratio(r.requests, r.batches), "requests"});
  out.push_back({"serve.fused_frac", ratio(r.fused_batches, r.batches), "frac"});
  out.push_back({"serve.busy_frac", ratio(r.busy_b, r.makespan_b), "frac"});
  out.push_back({"serve.queue_frac", ratio(sum(r.queue_s), sum(r.latency_s)), "frac"});
  out.push_back({"serve.registry_hit_frac", ratio(r.hits, r.hits + r.prepares), "frac"});
  out.push_back({"serve.prepares", r.prepares, "count"});
  out.push_back({"serve.evictions", r.evictions, "count"});
  return out;
}

struct Args {
  RunConfig cfg;
  std::string out_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spaden-e2e: %s\nusage: spaden-e2e --workload "
               "{suite-steady|serve-zipf|serve-churn|sharded-x4} --seed N --seconds S "
               "--trace {0|1} [--out DIR] [--commit SHA] [--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.cfg.workload = v;
    } else if (flag == "--seed") {
      const auto n = parse_long(v);
      if (!n || *n < 0) {
        usage("--seed must be a non-negative integer");
      }
      a.cfg.seed = static_cast<std::uint64_t>(*n);
    } else if (flag == "--seconds") {
      const auto s = parse_double(v);
      if (!s || *s < 0 || *s > 120) {
        usage("--seconds must be a number in [0, 120]");
      }
      a.cfg.seconds = *s;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.cfg.trace = v[0] == '1';
    } else if (flag == "--out") {
      a.out_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  RunConfig& c = a.cfg;
  // Scales: the serve workloads need 0.25 for the registry's §5.1 heuristic
  // to pick Spaden (nrow > 10,000); the closed loops run smaller so three
  // full set-ups and several rounds fit one run.
  if (c.workload == "suite-steady" || c.workload == "sharded-x4") {
    c.scale = c.smoke ? 1.0 / 256 : c.workload == "suite-steady" ? 1.0 / 16 : 1.0 / 32;
  } else if (c.workload == "serve-zipf" || c.workload == "serve-churn") {
    c.scale = c.smoke ? 1.0 / 64 : 0.25;
  } else {
    usage("unknown or missing --workload");
  }
  if (c.smoke) {
    c.setup_reps = 1;
    c.seconds = 0;
  }
  return a;
}

void refuse_spaden_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPADEN_", 7) == 0) {
      std::fprintf(stderr,
                   "spaden-e2e: refusing to run with %s set; the benchmark pins its own "
                   "configuration\n",
                   *e);
      std::exit(2);
    }
  }
}

void run_rounds(Workload& w, double seconds, bool traced, std::vector<double>& times,
                Results& out) {
  const Timer clock;
  for (int r = 0; r == 0 || clock.seconds() < seconds; ++r) {
    times.push_back(w.round(r, traced, r == 0, out));
  }
}

void write_config(JsonWriter& w, const Args& a) {
  const RunConfig& c = a.cfg;
  const EngineOptions o = pinned_options(std::nullopt, 1, c.trace);
  w.key("config");
  w.begin_object();
  w.field("workload", c.workload);
  w.field("seed", c.seed);
  w.field("seconds", c.seconds);
  w.field("trace", c.trace);
  w.field("smoke", c.smoke);
  w.field("scale", c.scale);
  w.field("setup_reps", c.setup_reps);
  w.field("device", o.device.name);
  w.field("link_latency_us", o.device.link_latency_us);
  w.field("link_bandwidth_gbps", o.device.link_bandwidth_gbps);
  w.field("links_per_device", o.device.links_per_device);
  w.field("sim_threads", o.sim_threads);
  w.field("sched", "rr");
  w.field("sched_window", o.sched.window);
  w.field("shared_l2", o.shared_l2);
  w.field("verify_first_run", o.verify_first_run);
  w.field("verify_format", c.workload.rfind("serve-", 0) == 0);
  w.field("sanitize", o.sanitize);
  w.field("profile", o.profile);
  w.field("telemetry", o.telemetry);
  w.field("convert_threads", 1);
  w.field("serve_max_batch", 32);
  w.field("serve_window_us", 200);
  w.end_object();
  w.field("commit", a.commit);
  w.field("nproc", std::thread::hardware_concurrency());
}

void write_samples(JsonWriter& w, const Results& r) {
  const auto series = [&w](const char* name, const std::vector<double>& v) {
    w.key(name);
    w.begin_array();
    for (const double x : v) {
      w.value(x);
    }
    w.end_array();
  };
  w.key("samples");
  w.begin_object();
  series("setup_s", r.setup_s);
  series("generate_s", r.generate_s);
  series("construct_s", r.construct_s);
  series("first_multiply_s", r.first_multiply_s);
  series("round_s", r.round_s);
  series("traced_round_s", r.traced_round_s);
  w.field("latency_samples", static_cast<std::uint64_t>(r.latency_s.size()));
  w.key("cell_gflops");
  w.begin_object();
  for (const auto& [label, gflops] : r.cell_gflops) {
    w.field(label, gflops);
  }
  w.end_object();
  w.key("host_parts_s");
  w.begin_object();
  for (const auto& [k, v] : r.host_parts) {
    w.field(k, v);
  }
  w.end_object();
  w.end_object();
}

void write_metrics(JsonWriter& w, const std::vector<Metric>& metrics) {
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

int run(const Args& a) {
  const RunConfig& cfg = a.cfg;
  Tracer tracer(cfg.trace, cfg.workload);
  Checker checker;
  const bool closed = cfg.workload == "suite-steady" || cfg.workload == "sharded-x4";
  const std::unique_ptr<Workload> w =
      closed ? make_closed_loop(cfg, tracer, checker) : make_serve(cfg, tracer, checker);
  Results r;
  if (!cfg.trace) {
    for (int rep = 0; rep < cfg.setup_reps; ++rep) {
      const CpuTimer t;
      w->setup(false, r);
      r.setup_s.push_back(t.seconds());
    }
    run_rounds(*w, cfg.seconds, false, r.round_s, r);
  } else {
    // Untraced half first (the overhead baseline), then the traced half,
    // which alone feeds the per-layer metrics.
    w->setup(false, r);
    run_rounds(*w, cfg.seconds / 2, false, r.round_s, r);
    r.reset_modeled();
    w->setup(true, r);
    run_rounds(*w, cfg.seconds / 2, true, r.traced_round_s, r);
    w->profile(r);
  }

  const std::vector<Metric> metrics = cfg.trace ? per_layer(r) : end_to_end(r);
  for (const Metric& m : metrics) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = checker.failed() == 0;

  if (!a.out_dir.empty()) {
    const std::string stem = a.out_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + "-trace" + (cfg.trace ? "1" : "0");
    JsonWriter w2;
    w2.begin_object();
    w2.field("schema", "spaden-e2e-v1");
    write_config(w2, a);
    w2.field("correct", correct);
    w2.field("attempted", checker.attempted());
    w2.field("failed", checker.failed());
    write_metrics(w2, metrics);
    write_samples(w2, r);
    w2.end_object();
    write_text_file(stem + ".json", w2.take());
    if (cfg.trace) {
      write_text_file(stem + ".chrome.json", tracer.chrome_trace_json());
    }
  }

  JsonWriter line(false);
  line.begin_object();
  line.field("correct", correct);
  line.field("attempted", checker.attempted());
  line.field("failed", checker.failed());
  write_metrics(line, metrics);
  line.end_object();
  std::fputs(line.take().c_str(), stdout);  // take() ends the document with '\n'
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace spaden::e2e

int main(int argc, char** argv) {
  using namespace spaden::e2e;
  const Args args = parse_args(argc, argv);
  refuse_spaden_env();
  // Format conversion sizes its thread pool from SPADEN_CONVERT_THREADS
  // (no API field); one thread keeps set-up host times independent of the
  // machine's core count, like the one simulation thread.
  setenv("SPADEN_CONVERT_THREADS", "1", 1);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spaden-e2e: %s\n", e.what());
    return 1;
  }
}
