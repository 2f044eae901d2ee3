#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace spaden::serve {

SpmvServer::SpmvServer(MatrixRegistry& registry, ServeConfig config)
    : registry_(registry), config_(std::move(config)) {
  SPADEN_REQUIRE(config_.max_batch >= 1 && config_.max_batch <= 128,
                 "max_batch %d out of [1, 128]", config_.max_batch);
  SPADEN_REQUIRE(config_.window_seconds >= 0, "window_seconds must be >= 0");
}

void SpmvServer::submit(Request req) {
  SPADEN_REQUIRE(req.x.size() == registry_.matrix_of(req.handle).ncols,
                 "request x size %zu != ncols of matrix '%s'", req.x.size(),
                 registry_.name_of(req.handle).c_str());
  queue_.push_back(std::move(req));
}

void SpmvServer::dispatch(std::vector<Request> reqs, double trigger_seconds,
                          double& device_free, ServeReport& report) {
  const Handle handle = reqs.front().handle;
  SpmvEngine& engine = registry_.acquire(handle);
  const std::string& matrix_name = registry_.name_of(handle);
  const std::string method(kern::method_name(registry_.method_of(handle)));
  const int width = static_cast<int>(reqs.size());
  // One serialized modeled device: a batch starts when triggered AND the
  // device is free.
  const double start = std::max(trigger_seconds, device_free);

  SpmvResult result;
  std::vector<std::vector<float>> ys;
  if (width == 1) {
    // Singleton fallback: the plain SpMV path, with the request id as the
    // x-generation tag so an identical re-multiply skips the upload. Ids
    // are only unique per server, so the engine also compares x itself
    // before it trusts the tag.
    std::vector<float> y;
    result = engine.multiply(reqs.front().x, y, reqs.front().id + 1);
    ys.push_back(std::move(y));
  } else {
    std::vector<const std::vector<float>*> xs;
    xs.reserve(reqs.size());
    for (const Request& r : reqs) {
      xs.push_back(&r.x);
    }
    result = engine.multiply_batch(xs, ys);
  }
  const double service = result.modeled_seconds;
  device_free = start + service;

  const std::size_t nnz = registry_.matrix_of(handle).nnz();
  const double useful = 2.0 * static_cast<double>(nnz) * width;
  ++report.batches;
  if (width > 1) {
    ++report.fused_batches;
  }
  ++report.batch_width_counts[width];
  report.busy_seconds += service;
  report.useful_flops += useful;
  report.tc_flops += result.stats.tc_flops();

  MatrixServeAgg& agg = report.per_matrix[handle];
  if (agg.requests == 0) {
    agg.matrix = matrix_name;
    agg.method = method;
    agg.nnz = nnz;
  }
  agg.requests += static_cast<std::uint64_t>(width);
  ++agg.batches;
  agg.service_seconds += service;
  agg.useful_flops += useful;
  agg.tc_flops += result.stats.tc_flops();

  met::LabelSet mat_labels = config_.labels;
  mat_labels.set("matrix", matrix_name);
  mat_labels.set("method", method);
  metrics_
      .histogram("spaden_serve_service_seconds", mat_labels,
                 "Modeled service seconds per dispatched batch")
      .observe(service);
  metrics_
      .histogram("spaden_serve_batch_width", config_.labels,
                 "Achieved batch width per dispatch (log-bucket quantized)")
      .observe(static_cast<double>(width));
  metrics_
      .counter("spaden_serve_batches_total", config_.labels, "Batches dispatched")
      .inc();
  if (width > 1) {
    metrics_
        .counter("spaden_serve_fused_batches_total", config_.labels,
                 "Batches served by one fused multi-RHS launch")
        .inc();
  }

  for (Request& req : reqs) {
    RequestResult rr;
    rr.id = req.id;
    rr.handle = handle;
    rr.tenant = std::move(req.tenant);
    rr.batch_width = width;
    rr.fused = width > 1;
    rr.arrival_seconds = req.arrival_seconds;
    rr.start_seconds = start;
    rr.queue_seconds = start - req.arrival_seconds;
    rr.service_seconds = service;
    rr.finish_seconds = start + service;
    metrics_.histogram("spaden_serve_queue_seconds", mat_labels, "Queueing delay per request")
        .observe(rr.queue_seconds);
    metrics_
        .histogram("spaden_serve_latency_seconds", mat_labels,
                   "Queue + service latency per request")
        .observe(rr.queue_seconds + service);
    // Mode-level aggregate series (no matrix/method labels): this is the one
    // the replay's p50/p99 exports read.
    metrics_
        .histogram("spaden_serve_latency_seconds", config_.labels,
                   "Queue + service latency per request")
        .observe(rr.queue_seconds + service);
    met::LabelSet tenant_labels = config_.labels;
    tenant_labels.set("tenant", rr.tenant);
    metrics_
        .counter("spaden_serve_requests_total", tenant_labels, "Requests served")
        .inc();
    ++report.requests;
    report.results.push_back(std::move(rr));
  }
  // Demultiplex after the loop consumed the requests' metadata: result i of
  // the batch belongs to request i, in submission order within the group.
  for (std::size_t i = 0; i < ys.size(); ++i) {
    report.results[report.results.size() - ys.size() + i].y = std::move(ys[i]);
  }
}

ServeReport SpmvServer::drain() {
  // Deterministic replay order: by (arrival, id) regardless of submission
  // order.
  std::stable_sort(queue_.begin(), queue_.end(), [](const Request& a, const Request& b) {
    return a.arrival_seconds != b.arrival_seconds ? a.arrival_seconds < b.arrival_seconds
                                                  : a.id < b.id;
  });

  struct Group {
    double deadline = 0;
    std::vector<Request> reqs;
  };
  ServeReport report;
  std::map<Handle, Group> pending;
  double device_free = 0;

  // Flush every group whose window expires at or before `now`, in
  // (deadline, handle) order — simultaneous expiries resolve by handle so
  // the loop is deterministic.
  const auto flush_due = [&](double now) {
    for (;;) {
      Handle due = 0;
      double deadline = 0;
      for (const auto& [h, g] : pending) {
        if (g.deadline <= now && (due == 0 || g.deadline < deadline)) {
          due = h;
          deadline = g.deadline;
        }
      }
      if (due == 0) {
        return;
      }
      auto node = pending.extract(due);
      dispatch(std::move(node.mapped().reqs), node.mapped().deadline, device_free, report);
    }
  };

  for (Request& req : queue_) {
    flush_due(req.arrival_seconds);
    const double arrival = req.arrival_seconds;
    const Handle handle = req.handle;
    Group& g = pending[handle];
    if (g.reqs.empty()) {
      g.deadline = arrival + config_.window_seconds;
    }
    g.reqs.push_back(std::move(req));
    if (static_cast<int>(g.reqs.size()) >= config_.max_batch) {
      auto node = pending.extract(handle);
      dispatch(std::move(node.mapped().reqs), arrival, device_free, report);
    }
  }
  while (!pending.empty()) {
    Handle due = pending.begin()->first;
    for (const auto& [h, g] : pending) {
      if (g.deadline < pending.at(due).deadline) {
        due = h;
      }
    }
    auto node = pending.extract(due);
    dispatch(std::move(node.mapped().reqs), node.mapped().deadline, device_free, report);
  }
  queue_.clear();

  std::sort(report.results.begin(), report.results.end(),
            [](const RequestResult& a, const RequestResult& b) { return a.id < b.id; });
  for (const RequestResult& r : report.results) {
    report.makespan_seconds = std::max(report.makespan_seconds, r.finish_seconds);
  }
  report.requests_per_second =
      report.makespan_seconds > 0
          ? static_cast<double>(report.requests) / report.makespan_seconds
          : 0.0;
  return report;
}

}  // namespace spaden::serve
