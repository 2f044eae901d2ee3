// Open-loop serve workloads in virtual time: seeded Poisson arrival streams
// are replayed through spaden-serve's SpmvServer, so the generator is never
// late and every modeled latency is a pure function of the stream.
//
//  serve-zipf   Zipf(1.0) tenants over {cant, consph, rmat:10}; max_batch 32,
//               200 us window, a budget that holds every matrix, engines
//               warmed in set-up. Each round offers phase A over capacity
//               (capacity_rps) and phase B at about 70% of it (latency). The
//               fused Spaden SpMM path runs beside the per-column CSR
//               fallback (rmat:10) and the registry always hits.
//  serve-churn  Uniform tenants over six Table-1 matrices at a low rate, so
//               batches are narrow, under a 16 MiB budget that holds about
//               two prepared matrices: conversion, upload and first-run
//               verification dominate, so work moved from multiply into
//               prepare shows as a loss here.
#include <algorithm>
#include <exception>

#include "e2e.hpp"
#include "serve/replay.hpp"

namespace spaden::e2e {

namespace {

struct Phase {
  const char* tag;
  std::uint64_t requests;
  double rate;           ///< offered requests per modeled second
  bool capacity;         ///< feeds capacity_rps
  bool latency;          ///< feeds the latency percentiles
};

struct Traffic {
  std::vector<std::string> matrices;
  int tenants = 1;
  double skew = 0;
  std::size_t budget_bytes = 0;
  std::vector<Phase> phases;
};

Traffic traffic_of(const RunConfig& cfg) {
  constexpr std::size_t kMiB = 1024ull * 1024ull;
  const std::uint64_t div = cfg.smoke ? 8 : 1;
  Traffic t;
  if (cfg.workload == "serve-zipf") {
    t.matrices = {"cant", "consph", "rmat:10"};
    t.tenants = 3;
    t.skew = 1.0;
    t.budget_bytes = 4096 * kMiB;
    t.phases = {{"A", 64 / div, 4e6, true, false}, {"B", 128 / div, 1e6, false, true}};
  } else {
    t.matrices = {"raefsky3", "conf5", "rma10", "cant", "pdb1HYS", "consph"};
    t.tenants = 6;
    t.skew = 0.0;
    t.budget_bytes = 16 * kMiB;
    t.phases = {{"C", 16 / div, 2e4, true, true}};
  }
  return t;
}

class Serve final : public Workload {
 public:
  Serve(const RunConfig& cfg, Tracer& tracer, Checker& checker)
      : cfg_(cfg), tracer_(tracer), checker_(checker), traffic_(traffic_of(cfg)) {}

  void setup(bool traced, Results& out) override {
    registry_.reset();
    handles_.clear();
    engines_.clear();
    const SpanGuard setup_span(tracer_, "setup", "bench");
    serve::RegistryConfig rc;
    rc.budget_bytes = traffic_.budget_bytes;
    rc.engine = pinned_options(std::nullopt, 1, traced);
    rc.engine.verify_format = true;  // the registry's format gate
    rc.benchmark_recommend = false;
    registry_ = std::make_unique<serve::MatrixRegistry>(rc);

    double generate = 0;
    double construct = 0;
    double first = 0;
    double prep_s = 0;
    double prep_nnz = 0;
    double footprint = 0;
    double prepare_cost = 0;
    for (const std::string& name : traffic_.matrices) {
      const SpanGuard span(tracer_, "generate " + name, "matrix");
      const CpuTimer t;
      mat::Csr a = make_matrix(name, cfg_.scale, cfg_.seed);
      generate += t.seconds();
      handles_.push_back(registry_->add(name, std::move(a)));
    }
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      const serve::Handle h = handles_[i];
      const mat::Csr& a = registry_->matrix_of(h);
      SpmvEngine* engine = nullptr;
      double acquire_s = 0;
      {
        const SpanGuard span(tracer_, "acquire " + registry_->name_of(h), "serve");
        const CpuTimer t;
        engine = &registry_->acquire(h);
        acquire_s = t.seconds();
        if (const Telemetry* tel = engine->telemetry()) {
          tracer_.stitch(span.id(), tel->spans(), 0);
        }
      }
      construct += acquire_s;
      prep_s += engine->prep().seconds;
      prep_nnz += static_cast<double>(a.nnz());
      footprint += static_cast<double>(registry_->bytes_of(h));

      const std::vector<float> x = make_x(a.ncols, mix(cfg_.seed, "setup-x", i));
      std::vector<float> y;
      {
        const SpanGuard span(tracer_, "first_multiply", "core");
        const CpuTimer t;
        const Telemetry* tel = engine->telemetry();
        const std::size_t from = tel != nullptr ? tel->spans().size() : 0;
        const SpmvResult res = engine->multiply(x, y);
        first += t.seconds();
        if (tel != nullptr) {
          const EngineSplit split = split_spans(tel->spans(), from);
          prepare_cost += acquire_s + split.verify;
          tracer_.stitch(span.id(), tel->spans(), from);
          // Evicted engines take their telemetry with them, so the kernel
          // and simulator layers of the serve workloads are read off these
          // warm-up multiplies (one per matrix, width 1).
          out.probes.push_back(Probe{a.nnz(), res, split.launch});
        }
      }
      checker_.check(a, registry_->method_of(h), x, y);
      engines_.push_back(engine);
    }
    // Re-prepare cost of one cold acquire plus its first-run verification,
    // averaged over the matrices: what serve-churn pays per prepare.
    prepare_cost_ = prepare_cost / static_cast<double>(handles_.size());
    last_stats_ = registry_->stats();
    if (!traced) {
      out.generate_s.push_back(generate);
      out.construct_s.push_back(construct);
      out.first_multiply_s.push_back(first);
      out.prep_s = prep_s;
      out.prep_nnz = prep_nnz;
      out.footprint_bytes = footprint;
    }
  }

  double round(int /*r*/, bool traced, bool report, Results& out) override {
    // Streams are synthesized outside the timed part. The arrival times and
    // tenants are part of the workload: every seed and every round replays
    // the same stream (so rounds do equal work and seeds move the modeled
    // latencies only through the matrices), while x comes from the seed.
    // Request ids stay unique across rounds: a singleton dispatch tags its x
    // upload with the request id, so a reused id could skip an upload.
    std::vector<std::vector<serve::Request>> streams;
    for (const Phase& phase : traffic_.phases) {
      serve::ReplaySpec spec;
      spec.seed = mix(0, phase.tag);
      spec.requests = phase.requests;
      spec.arrival_rate = phase.rate;
      spec.tenants = traffic_.tenants;
      spec.tenant_skew = traffic_.skew;
      spec.matrices = traffic_.matrices;
      std::vector<serve::Request> stream = serve::synthesize_stream(spec, *registry_, handles_);
      for (serve::Request& req : stream) {
        req.id += next_id_;
        req.x = make_x(req.x.size(), mix(cfg_.seed, "request-x", req.id));
      }
      next_id_ += stream.size();
      streams.push_back(std::move(stream));
    }

    serve::ServeConfig sc;
    sc.max_batch = 32;
    sc.window_seconds = 200e-6;
    std::vector<serve::ServeReport> reports(streams.size());
    std::vector<bool> done(streams.size(), false);
    double drain_s = 0;
    EngineSplit engine;
    const Timer wall;
    const CpuTimer cpu;
    {
      const SpanGuard round_span(tracer_, "round", "bench");
      for (std::size_t p = 0; p < streams.size(); ++p) {
        const SpanGuard span(tracer_, std::string("drain ") + traffic_.phases[p].tag, "serve");
        std::vector<std::size_t> from = span_counts();
        const Timer t;
        try {
          serve::SpmvServer server(*registry_, sc);
          for (const serve::Request& req : streams[p]) {
            server.submit(req);
          }
          reports[p] = server.drain();
          done[p] = true;
        } catch (const std::exception& e) {
          checker_.fail(std::string("drain: ") + e.what());
        }
        drain_s += t.seconds();
        engine += stitch_engines(span.id(), from);
      }
    }
    const double host = cpu.seconds();
    const double host_wall = wall.seconds();

    for (std::size_t p = 0; p < streams.size(); ++p) {
      if (!done[p]) {
        continue;
      }
      for (const serve::RequestResult& rr : reports[p].results) {
        const serve::Request& req = streams[p][rr.id - streams[p].front().id];
        checker_.check(registry_->matrix_of(rr.handle), registry_->method_of(rr.handle), req.x,
                       rr.y);
      }
    }
    const serve::RegistryStats now = registry_->stats();
    const double prepares = static_cast<double>(now.prepares - last_stats_.prepares);
    if (report) {
      out.hits += static_cast<double>(now.hits - last_stats_.hits);
      out.prepares += prepares;
      out.evictions += static_cast<double>(now.evictions - last_stats_.evictions);
    }
    last_stats_ = now;

    if (traced) {
      // Churn evicts engines mid-drain and their spans go with them, so
      // re-prepare time there is computed (prepares x the measured cold
      // acquire + first-run verification), not traced.
      const double reprepare = prepares * prepare_cost_;
      out.host_parts["bench.self"] += host_wall - drain_s;
      out.host_parts["serve.self"] += drain_s - engine.total - reprepare;
      out.host_parts["serve.reprepare"] += reprepare;
      out.host_parts["core.self"] += engine.self();
      out.host_parts["core.verify"] += engine.verify;
      out.host_parts["core.upload"] += engine.upload;
      out.host_parts["core.launch"] += engine.launch;
      out.host_parts["core.download"] += engine.download;
    }
    if (report) {
      for (std::size_t p = 0; p < streams.size(); ++p) {
        if (done[p]) {
          record(out, traffic_.phases[p], reports[p]);
        }
      }
    }
    return host;
  }

  void profile(Results& out) override {
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      if (registry_->method_of(handles_[i]) == kern::Method::Spaden) {
        profile_spaden(tracer_, registry_->name_of(handles_[i]),
                       registry_->matrix_of(handles_[i]), 1, mix(cfg_.seed, "profile-x", i),
                       out);
      }
    }
  }

 private:

  /// Telemetry span counts of the set-up engines; empty unless every one of
  /// them is still resident (serve-zipf's budget never evicts).
  [[nodiscard]] std::vector<std::size_t> span_counts() const {
    std::vector<std::size_t> counts;
    if (traffic_.budget_bytes < kAmpleBudget) {
      return counts;
    }
    for (const SpmvEngine* engine : engines_) {
      const Telemetry* tel = engine->telemetry();
      if (tel == nullptr) {
        return {};
      }
      counts.push_back(tel->spans().size());
    }
    return counts;
  }

  EngineSplit stitch_engines(int span, const std::vector<std::size_t>& from) {
    EngineSplit split;
    for (std::size_t i = 0; i < from.size(); ++i) {
      const std::vector<SpanRecord>& spans = engines_[i]->telemetry()->spans();
      split += split_spans(spans, from[i]);
      tracer_.stitch(span, spans, from[i]);
    }
    return split;
  }

  void record(Results& out, const Phase& phase, const serve::ServeReport& rep) const {
    const auto requests = static_cast<double>(rep.requests);
    if (phase.capacity) {
      out.ops += requests;
      out.busy_s += rep.busy_seconds;
    }
    if (phase.latency) {
      for (const serve::RequestResult& rr : rep.results) {
        out.latency_s.push_back(rr.finish_seconds - rr.arrival_seconds);
        out.queue_s.push_back(rr.queue_seconds);
      }
      out.busy_b += rep.busy_seconds;
      out.makespan_b += rep.makespan_seconds;
    }
    out.requests += requests;
    out.batches += static_cast<double>(rep.batches);
    out.fused_batches += static_cast<double>(rep.fused_batches);
    for (const auto& [h, agg] : rep.per_matrix) {
      const double gflops = agg.useful_flops / agg.service_seconds / 1e9;
      out.gflops[registry_->method_of(h)].push_back(gflops);
      out.cell_gflops.emplace_back(agg.matrix + "/" + agg.method + "/" + phase.tag, gflops);
      if (agg.tc_flops > 0) {
        out.tc_useful_flops += agg.useful_flops;
        out.tc_flops += agg.tc_flops;
      }
    }
  }

  static constexpr std::size_t kAmpleBudget = 1024ull * 1024ull * 1024ull;

  const RunConfig& cfg_;
  Tracer& tracer_;
  Checker& checker_;
  Traffic traffic_;
  std::unique_ptr<serve::MatrixRegistry> registry_;
  std::vector<serve::Handle> handles_;
  std::vector<SpmvEngine*> engines_;  ///< set-up acquires; valid while resident
  serve::RegistryStats last_stats_;
  double prepare_cost_ = 0;
  std::uint64_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const RunConfig& cfg, Tracer& tracer, Checker& checker) {
  return std::make_unique<Serve>(cfg, tracer, checker);
}

}  // namespace spaden::e2e
