// Closed-loop workloads: one caller multiplies against a fixed list of
// (matrix, method, devices) cells, waiting for each result.
//
//  suite-steady  {raefsky3, cant, pwtk, TSOPF, F1, scircuit} x {Spaden,
//                cuSPARSE CSR, DASP} on one L40 — the paper's comparison.
//                The matrices span dense-block, mixed, sparse-block and
//                low-degree structure; CSR cells run the memory path only,
//                Spaden and DASP cells the tensor-core path.
//  sharded-x4    {pwtk, F1} x {Spaden, CSR} plus rmat:16 x CSR, each at 1
//                and 4 devices over nvlink — the only workload that runs
//                gpusim/multidevice and kernels/sharded. Banded FEM matrices
//                (small halo) run beside a power-law graph (remote sectors on
//                most loads); the 1-device cells bypass sharding.
#include <algorithm>
#include <exception>

#include "e2e.hpp"
#include "kernels/sharded.hpp"

namespace spaden::e2e {

namespace {

struct Cell {
  std::string matrix;
  kern::Method method{};
  int devices = 1;
};

std::vector<Cell> cells_of(const RunConfig& cfg) {
  std::vector<Cell> cells;
  if (cfg.workload == "suite-steady") {
    for (const char* m : {"raefsky3", "cant", "pwtk", "TSOPF", "F1", "scircuit"}) {
      for (const kern::Method method :
           {kern::Method::Spaden, kern::Method::CusparseCsr, kern::Method::Dasp}) {
        cells.push_back({m, method, 1});
      }
    }
    return cells;
  }
  const std::string rmat = cfg.smoke ? "rmat:10" : "rmat:16";
  const std::vector<std::pair<std::string, kern::Method>> pairs = {
      {"pwtk", kern::Method::Spaden},
      {"pwtk", kern::Method::CusparseCsr},
      {"F1", kern::Method::Spaden},
      {"F1", kern::Method::CusparseCsr},
      {rmat, kern::Method::CusparseCsr},
  };
  for (const auto& [m, method] : pairs) {
    cells.push_back({m, method, 1});
    cells.push_back({m, method, 4});
  }
  return cells;
}

/// max / mean shard nonzeros of the 4-device row split.
double shard_imbalance(const mat::Csr& a) {
  const std::vector<kern::Shard> shards = kern::plan_shards(a, 4);
  std::uint64_t max_nnz = 0;
  for (const kern::Shard& s : shards) {
    max_nnz = std::max(max_nnz, s.nnz);
  }
  return static_cast<double>(max_nnz) * 4.0 / static_cast<double>(a.nnz());
}

class ClosedLoop final : public Workload {
 public:
  ClosedLoop(const RunConfig& cfg, Tracer& tracer, Checker& checker)
      : cfg_(cfg), tracer_(tracer), checker_(checker), cells_(cells_of(cfg)) {}

  void setup(bool traced, Results& out) override {
    engines_.clear();
    matrices_.clear();
    const SpanGuard setup_span(tracer_, "setup", "bench");
    double generate = 0;
    double construct = 0;
    double first = 0;
    double prep_s = 0;
    double prep_nnz = 0;
    double footprint = 0;
    engines_.resize(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      if (matrices_.count(cell.matrix) == 0) {
        const SpanGuard span(tracer_, "generate " + cell.matrix, "matrix");
        const CpuTimer t;
        matrices_.emplace(cell.matrix, make_matrix(cell.matrix, cfg_.scale, cfg_.seed));
        generate += t.seconds();
      }
      const mat::Csr& a = matrices_.at(cell.matrix);
      {
        const SpanGuard span(tracer_, "construct", "core");
        const CpuTimer t;
        engines_[i] = std::make_unique<SpmvEngine>(
            a, pinned_options(cell.method, cell.devices, traced));
        construct += t.seconds();
        if (const Telemetry* tel = engines_[i]->telemetry()) {
          tracer_.stitch(span.id(), tel->spans(), 0);
        }
      }
      const PrepInfo& prep = engines_[i]->prep();
      prep_s += prep.seconds;
      prep_nnz += static_cast<double>(a.nnz());
      footprint += static_cast<double>(prep.footprint.total_bytes());

      const std::vector<float> x = make_x(a.ncols, mix(cfg_.seed, "setup-x", i));
      std::vector<float> y;
      {
        const SpanGuard span(tracer_, "first_multiply", "core");
        const CpuTimer t;
        const std::size_t from = span_count(i);
        (void)engines_[i]->multiply(x, y);
        first += t.seconds();
        stitch(span.id(), i, from);
      }
      checker_.check(a, cell.method, x, y);
    }
    if (!traced) {
      out.generate_s.push_back(generate);
      out.construct_s.push_back(construct);
      out.first_multiply_s.push_back(first);
      out.prep_s = prep_s;
      out.prep_nnz = prep_nnz;
      out.footprint_bytes = footprint;
    }
  }

  double round(int r, bool traced, bool report, Results& out) override {
    const std::size_t n = cells_.size();
    std::vector<std::vector<float>> xs(n);
    std::vector<std::vector<float>> ys(n);
    std::vector<SpmvResult> results(n);
    std::vector<bool> done(n, false);
    std::vector<double> launch_host(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = make_x(matrices_.at(cells_[i].matrix).ncols,
                     mix(cfg_.seed, "x", static_cast<std::uint64_t>(r) * n + i));
    }

    EngineSplit engine;
    const Timer wall;
    const CpuTimer cpu;
    {
      const SpanGuard round_span(tracer_, "round", "bench");
      for (std::size_t i = 0; i < n; ++i) {
        const Cell& cell = cells_[i];
        const SpanGuard span(tracer_, "multiply " + cell.matrix, "bench");
        const std::size_t from = span_count(i);
        try {
          results[i] = engines_[i]->multiply(xs[i], ys[i]);
          done[i] = true;
        } catch (const std::exception& e) {
          checker_.fail(cell.matrix + ": " + e.what());
        }
        if (const Telemetry* tel = engines_[i]->telemetry()) {
          const EngineSplit split = split_spans(tel->spans(), from);
          launch_host[i] = split.launch;
          engine += split;
          stitch(span.id(), i, from);
        }
      }
    }
    const double host = cpu.seconds();
    const double host_wall = wall.seconds();

    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) {
        checker_.check(matrices_.at(cells_[i].matrix), cells_[i].method, xs[i], ys[i]);
      }
    }
    if (traced) {
      add_split(out, host_wall, engine);
    }
    if (report) {
      record(out, results, done, launch_host);
    }
    return host;
  }

  void profile(Results& out) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].method == kern::Method::Spaden) {
        profile_spaden(tracer_, cells_[i].matrix, matrices_.at(cells_[i].matrix),
                       cells_[i].devices, mix(cfg_.seed, "profile-x", i), out);
      }
    }
  }

 private:
  [[nodiscard]] std::size_t span_count(std::size_t i) const {
    const Telemetry* tel = engines_[i]->telemetry();
    return tel != nullptr ? tel->spans().size() : 0;
  }

  void stitch(int span, std::size_t i, std::size_t from) {
    if (const Telemetry* tel = engines_[i]->telemetry()) {
      tracer_.stitch(span, tel->spans(), from);
    }
  }

  static void add_split(Results& out, double wall, const EngineSplit& engine) {
    out.host_parts["bench.self"] += wall - engine.total;
    out.host_parts["core.self"] += engine.self();
    out.host_parts["core.verify"] += engine.verify;
    out.host_parts["core.upload"] += engine.upload;
    out.host_parts["core.launch"] += engine.launch;
    out.host_parts["core.download"] += engine.download;
  }

  void record(Results& out, const std::vector<SpmvResult>& results,
              const std::vector<bool>& done, const std::vector<double>& launch_host) const {
    const bool sharded = cfg_.workload == "sharded-x4";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (!done[i]) {
        continue;
      }
      const Cell& cell = cells_[i];
      const mat::Csr& a = matrices_.at(cell.matrix);
      const SpmvResult& res = results[i];
      const std::string method(kern::method_name(cell.method));
      out.cell_gflops.emplace_back(
          cell.matrix + "/" + method + "/" + std::to_string(cell.devices), res.gflops);
      // The user-facing numbers of sharded-x4 are the 4-device ones; its
      // 1-device cells only anchor the scaling ratio.
      if (!sharded || cell.devices == 4) {
        out.gflops[cell.method].push_back(res.gflops);
        out.ops += 1;
        out.busy_s += res.modeled_seconds;
        out.latency_s.push_back(res.modeled_seconds);
      }
      if (sharded && cell.devices == 4 && done[i - 1]) {
        out.scaling_x4.push_back(res.gflops / results[i - 1].gflops);
        out.shard_imbalance.push_back(shard_imbalance(a));
      }
      if (res.stats.tc_flops() > 0) {
        out.tc_useful_flops += 2.0 * static_cast<double>(a.nnz());
        out.tc_flops += res.stats.tc_flops();
      }
      out.probes.push_back(Probe{a.nnz(), res, launch_host[i]});
    }
  }

  const RunConfig& cfg_;
  Tracer& tracer_;
  Checker& checker_;
  std::vector<Cell> cells_;
  std::map<std::string, mat::Csr> matrices_;
  std::vector<std::unique_ptr<SpmvEngine>> engines_;  ///< parallel to cells_
};

}  // namespace

std::unique_ptr<Workload> make_closed_loop(const RunConfig& cfg, Tracer& tracer,
                                           Checker& checker) {
  return std::make_unique<ClosedLoop>(cfg, tracer, checker);
}

}  // namespace spaden::e2e
