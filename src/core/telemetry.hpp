// spaden-telemetry: engine-wide span tracing above gpusim's per-launch
// profiler.
//
// Where spaden-prof (gpusim/profiler) sees one kernel launch at a time,
// Telemetry observes the whole engine pipeline — convert → verify_format →
// per multiply: verify → upload → launch₁..ₙ → download — and aggregates
// across multiplies:
//
//  * every span records host wall-clock seconds and, where one exists, the
//    modeled seconds of the phase, feeding per-phase histograms in a
//    met::MetricsRegistry (`spaden_multiply_modeled_seconds`,
//    `spaden_convert_host_seconds`, ... with method/device label
//    dimensions) — the requests/s + modeled p50/p99 substrate the
//    SpMV-as-a-service roadmap item reports through;
//  * the span tree is exported as a *stitched* chrome-trace timeline: engine
//    phase spans on one lane, and inside each launch span the launch's
//    ProfileReport per-SM warp slices (gpusim's TraceEvents and trace
//    writer), so one document walks from CSR ingest down to individual warp
//    events.
//
// Determinism contract (tested): modeled-time metrics are a pure function
// of the bucket counts and the fixed boundary table in common/metrics, so
// `metrics_json(include_host=false)` is byte-identical across
// SPADEN_SIM_THREADS and scheduler policies whose modeled times agree to
// within a bucket; host wall-clock lives under the segregated host
// namespace. Telemetry follows the zero-cost-when-disabled contract: the
// engine holds a null pointer, every hook is one null test, and modeled
// time is bit-identical with telemetry on or off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "gpusim/profiler.hpp"

namespace spaden::sim {
struct LaunchRecord;
class DeviceGroup;
}

namespace spaden {

/// Telemetry default from the environment: SPADEN_TELEMETRY set to anything
/// but "" or "0" enables spaden-telemetry on new engines.
[[nodiscard]] bool default_telemetry();

/// One completed engine-level span. Spans are stored in begin order and
/// form a tree through `parent` (index into Telemetry::spans(), -1 = root).
struct SpanRecord {
  std::string name;
  int parent = -1;
  int depth = 0;
  double host_seconds = 0;     ///< wall clock between open and close
  double modeled_seconds = -1; ///< < 0: host-only phase (no modeled time)
  /// Index into Telemetry's retained profile reports for launch spans whose
  /// device timeline was captured (-1 otherwise).
  int profile_index = -1;
  /// Device index of a launch span (gpusim/multidevice): its device slices
  /// render under chrome pid sim::kDevicePid + device. 0 on a single device.
  int device = 0;
  bool open = true;
};

class Telemetry {
 public:
  Telemetry();

  /// Labels stamped on every metric this Telemetry records (the engine sets
  /// method + device once at construction).
  void set_label(std::string key, std::string value);
  [[nodiscard]] const met::LabelSet& labels() const { return labels_; }

  [[nodiscard]] met::MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] const met::MetricsRegistry& metrics() const { return registry_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Open a span as a child of the innermost open span. Returns its index.
  int begin_span(std::string name);
  /// Close span `index` (must be the innermost open one), recording
  /// `host_seconds` and feeding the per-phase histograms:
  /// spaden_<name>_host_seconds always, spaden_<name>_modeled_seconds when
  /// `modeled_seconds` >= 0.
  void end_span(int index, double host_seconds, double modeled_seconds = -1);

  /// Append one launch span per record in each device's launch log, under
  /// the innermost open span, in device order and tagged with the device
  /// index (the engine calls this once per multiply, right after the group
  /// launch, pairing records with the profile reports of the same launch
  /// when profiling was on). The retained reports of *earlier* multiplies
  /// drop their timeline events so memory stays bounded: the stitched trace
  /// nests per-SM device slices under the most recent multiply's launches
  /// and keeps every engine span.
  void record_launches(const sim::DeviceGroup& group);

  /// Structured stitched timeline. Layout: spans are laid out depth-first —
  /// a span starts where its previous sibling ended and lasts
  /// max(native, Σ children), native being modeled µs where the span has
  /// modeled time (launches additionally stretch to their device-slice
  /// extent) and host µs otherwise — so containment (child ⊆ parent, device
  /// slice ⊆ launch span) holds by construction. One timeline necessarily
  /// mixes the two clock domains; args distinguish them.
  [[nodiscard]] std::vector<sim::TraceEvent> build_trace() const;
  /// The stitched timeline as a chrome://tracing JSON document
  /// (sim::chrome_trace_json of build_trace()).
  [[nodiscard]] std::string chrome_trace_json() const;

  /// {"schema": spaden-metrics-v1, "metrics": [...], "host_metrics": [...],
  /// "spans": [...]}. The spans section carries *exact* per-phase host and
  /// modeled second totals (CI's span-sum check reads them) and is emitted
  /// only with include_host, like everything nondeterministic.
  [[nodiscard]] std::string metrics_json(bool include_host = true) const;
  /// Prometheus text exposition of the registry.
  [[nodiscard]] std::string metrics_prometheus(bool include_host = true) const;

 private:
  /// record_launches for one device's log.
  void record_device_launches(const std::vector<sim::LaunchRecord>& launches,
                              const std::vector<sim::ProfileReport>* profiles, int device);
  /// end_span without the metric recording (launch spans record their own).
  void close_span(int index, double host_seconds, double modeled_seconds);
  [[nodiscard]] double span_native_us(const SpanRecord& s) const;

  met::LabelSet labels_;
  met::MetricsRegistry registry_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_stack_;
  std::vector<sim::ProfileReport> profiles_;  ///< SpanRecord::profile_index
  std::size_t profiles_kept_from_ = 0;  ///< older entries have events cleared
};

/// RAII span guard used by the engine: measures host seconds from
/// construction and records into `telemetry` on close — unless telemetry is
/// null, in which case it is a plain timer (the engine still reads
/// `close()`'s host seconds for PrepInfo, keeping one source of truth).
class ScopedSpan {
 public:
  ScopedSpan(Telemetry* telemetry, const char* name)
      : telemetry_(telemetry),
        index_(telemetry != nullptr ? telemetry->begin_span(name) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  /// Attach the phase's modeled seconds (recorded at close).
  void set_modeled_seconds(double seconds) { modeled_seconds_ = seconds; }

  /// Close now; returns the measured host seconds (idempotent).
  double close() {
    if (closed_) {
      return host_seconds_;
    }
    closed_ = true;
    host_seconds_ = timer_.seconds();
    if (telemetry_ != nullptr) {
      telemetry_->end_span(index_, host_seconds_, modeled_seconds_);
    }
    return host_seconds_;
  }

 private:
  Telemetry* telemetry_;
  int index_;
  Timer timer_;
  double host_seconds_ = 0;
  double modeled_seconds_ = -1;
  bool closed_ = false;
};

}  // namespace spaden
