#include "serve/registry.hpp"

#include <cstdlib>
#include <utility>

#include "analysis/recommend.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "gpusim/sched/policy.hpp"

namespace spaden::serve {

int default_serve_sim_threads() {
  if (const char* env = std::getenv("SPADEN_SERVE_SIM_THREADS")) {
    const auto n = parse_long(env);
    SPADEN_REQUIRE(n && *n >= 1 && *n <= 256,
                   "SPADEN_SERVE_SIM_THREADS=%s is not an integer in [1, 256]", env);
    return static_cast<int>(*n);
  }
  return 1;
}

EngineOptions pinned_engine_options(const sim::DeviceSpec& device) {
  EngineOptions o;
  o.device = device;
  // Explicit values bypass every SPADEN_SIM_* / SPADEN_SANCHECK env
  // default the plain engine constructor would read — serve reports must
  // not change when the ambient simulator config does.
  o.sim_threads = default_serve_sim_threads();
  o.sched = sim::SchedConfig{sim::SchedPolicy::RoundRobin, 0};
  o.sanitize = false;
  o.verify_format = true;
  return o;
}

MatrixRegistry::MatrixRegistry(RegistryConfig config) : config_(std::move(config)) {}
MatrixRegistry::~MatrixRegistry() = default;

Handle MatrixRegistry::add(std::string name, mat::Csr a) {
  a.validate();
  Entry e;
  e.name = std::move(name);
  e.matrix = std::move(a);
  SPADEN_REQUIRE(e.matrix.nnz() > 0, "cannot serve an empty matrix '%s'", e.name.c_str());
  e.method = config_.benchmark_recommend
                 ? analysis::recommend(e.matrix, config_.engine.device, true).best_method
                 : SpmvEngine::auto_select(e.matrix);
  const Handle h = next_handle_++;
  entries_.emplace(h, std::move(e));
  return h;
}

const MatrixRegistry::Entry& MatrixRegistry::entry(Handle h) const {
  const auto it = entries_.find(h);
  SPADEN_REQUIRE(it != entries_.end(), "unknown matrix handle %u", h);
  return it->second;
}

SpmvEngine& MatrixRegistry::acquire(Handle h) {
  const auto it = entries_.find(h);
  SPADEN_REQUIRE(it != entries_.end(), "unknown matrix handle %u", h);
  Entry& e = it->second;
  if (e.engine == nullptr) {
    EngineOptions opts = config_.engine;
    opts.method = e.method;
    e.engine = std::make_unique<SpmvEngine>(e.matrix, opts);
    e.engine->set_telemetry_label("matrix", e.name);
    e.bytes = e.engine->prep().footprint.total_bytes();
    stats_.resident_bytes += e.bytes;
    ++stats_.prepares;
    evict_until_fits(h);
  } else {
    ++stats_.hits;
  }
  e.last_use = ++use_clock_;
  return *e.engine;
}

void MatrixRegistry::evict_until_fits(Handle keep) {
  while (stats_.resident_bytes > config_.budget_bytes) {
    // Least-recently-used resident entry other than the one just prepared;
    // if only `keep` remains, an over-budget single matrix is tolerated.
    Handle victim = 0;
    std::uint64_t oldest = 0;
    for (const auto& [h, e] : entries_) {
      if (h == keep || e.engine == nullptr) {
        continue;
      }
      if (victim == 0 || e.last_use < oldest) {
        victim = h;
        oldest = e.last_use;
      }
    }
    if (victim == 0) {
      break;
    }
    Entry& e = entries_.at(victim);
    stats_.resident_bytes -= e.bytes;
    e.engine.reset();
    ++stats_.evictions;
  }
}

bool MatrixRegistry::resident(Handle h) const { return entry(h).engine != nullptr; }
kern::Method MatrixRegistry::method_of(Handle h) const { return entry(h).method; }
const std::string& MatrixRegistry::name_of(Handle h) const { return entry(h).name; }
const mat::Csr& MatrixRegistry::matrix_of(Handle h) const { return entry(h).matrix; }
std::size_t MatrixRegistry::bytes_of(Handle h) const { return entry(h).bytes; }

}  // namespace spaden::serve
