#include "core/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "gpusim/device.hpp"
#include "gpusim/multidevice.hpp"

namespace spaden {

bool default_telemetry() { return env_flag("SPADEN_TELEMETRY"); }

Telemetry::Telemetry() = default;

void Telemetry::set_label(std::string key, std::string value) {
  labels_.set(std::move(key), std::move(value));
}

int Telemetry::begin_span(std::string name) {
  SpanRecord span;
  span.name = std::move(name);
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.depth = static_cast<int>(open_stack_.size());
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_stack_.push_back(index);
  return index;
}

void Telemetry::close_span(int index, double host_seconds, double modeled_seconds) {
  assert(!open_stack_.empty() && open_stack_.back() == index);
  open_stack_.pop_back();
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.host_seconds = host_seconds;
  span.modeled_seconds = modeled_seconds;
  span.open = false;
}

void Telemetry::end_span(int index, double host_seconds, double modeled_seconds) {
  close_span(index, host_seconds, modeled_seconds);
  const SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  registry_
      .histogram("spaden_" + span.name + "_host_seconds", labels_,
                 "Host wall-clock seconds spent in this engine phase")
      .observe(host_seconds);
  if (modeled_seconds >= 0) {
    registry_
        .histogram("spaden_" + span.name + "_modeled_seconds", labels_,
                   "Modeled device seconds of this engine phase")
        .observe(modeled_seconds);
  }
}

void Telemetry::record_launches(const sim::DeviceGroup& group) {
  // Only the most recent multiply keeps its device timeline: drop the event
  // buffers of reports retained by earlier multiplies (their launch spans
  // and metrics stay — just not the per-warp slices). Trimmed once, before
  // any device records, so every device of this multiply keeps its slices.
  for (std::size_t i = profiles_kept_from_; i < profiles_.size(); ++i) {
    profiles_[i].events.clear();
    profiles_[i].events.shrink_to_fit();
  }
  profiles_kept_from_ = profiles_.size();
  for (int d = 0; d < group.size(); ++d) {
    const sim::Device& dev = group.device(d);
    const std::vector<sim::ProfileReport>& profiles = dev.profile_log();
    record_device_launches(dev.launch_log(), profiles.empty() ? nullptr : &profiles, d);
  }
}

void Telemetry::record_device_launches(const std::vector<sim::LaunchRecord>& launches,
                                       const std::vector<sim::ProfileReport>* profiles,
                                       int device) {
  // Launches carry a batch id tagging which logical multiply they belong
  // to. When the log spans more than one id (an engine multiply_batch whose
  // method ran per-column, say), each contiguous same-id group is nested
  // under a structural "batch" wrapper span, so build_trace shows the
  // batch's multiplies as siblings instead of one flat interleaved run.
  bool multiple_ids = false;
  for (const sim::LaunchRecord& rec : launches) {
    if (rec.batch_id != launches.front().batch_id) {
      multiple_ids = true;
      break;
    }
  }

  for (std::size_t i = 0; i < launches.size();) {
    std::size_t group_end = i;
    double group_host = 0;
    double group_modeled = 0;
    while (group_end < launches.size() &&
           launches[group_end].batch_id == launches[i].batch_id) {
      group_host += launches[group_end].host_seconds;
      group_modeled += launches[group_end].modeled_seconds;
      ++group_end;
    }
    const int wrapper = multiple_ids ? begin_span("batch") : -1;
    for (std::size_t j = i; j < group_end; ++j) {
      const sim::LaunchRecord& rec = launches[j];
      const int index = begin_span(rec.kernel_name);
      spans_[static_cast<std::size_t>(index)].device = device;
      if (profiles != nullptr && j < profiles->size() && (*profiles)[j].enabled) {
        spans_[static_cast<std::size_t>(index)].profile_index =
            static_cast<int>(profiles_.size());
        profiles_.push_back((*profiles)[j]);
      }
      close_span(index, rec.host_seconds, rec.modeled_seconds);

      registry_.counter("spaden_launches_total", labels_, "Kernel launches issued").inc();
      registry_
          .counter("spaden_warps_launched_total", labels_, "Warps across all launches")
          .inc(rec.warps);
      registry_
          .histogram("spaden_launch_modeled_seconds", labels_,
                     "Modeled device seconds per kernel launch")
          .observe(rec.modeled_seconds);
      registry_
          .histogram("spaden_launch_host_seconds", labels_,
                     "Host wall-clock seconds the simulator spent per launch")
          .observe(rec.host_seconds);
    }
    if (wrapper >= 0) {
      // Structural span: no per-phase metric (the launches inside recorded
      // their own), just the tree node build_trace nests the group under.
      close_span(wrapper, group_host, group_modeled);
    }
    i = group_end;
  }
}

double Telemetry::span_native_us(const SpanRecord& s) const {
  return (s.modeled_seconds >= 0 ? s.modeled_seconds : s.host_seconds) * 1e6;
}

std::vector<sim::TraceEvent> Telemetry::build_trace() const {
  // Each clock has its own engine lane, and a span is laid out only against
  // spans of its own clock: its anchor is its nearest same-clock ancestor
  // (-1: the lane's top level). Host seconds therefore never move a
  // modeled span or a device slice.
  const std::size_t n = spans_.size();
  auto host_clock = [&](std::size_t i) { return spans_[i].modeled_seconds < 0; };
  std::vector<int> anchor(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    int p = spans_[i].parent;
    while (p >= 0 && host_clock(static_cast<std::size_t>(p)) != host_clock(i)) {
      p = spans_[static_cast<std::size_t>(p)].parent;
    }
    anchor[i] = p;
  }

  // Per-span device slices at base 0, so the launch span can stretch to the
  // slice extent before timestamps are assigned.
  std::map<int, std::pair<std::vector<sim::TraceEvent>, double>> device;
  for (std::size_t i = 0; i < n; ++i) {
    const int pi = spans_[i].profile_index;
    if (pi < 0) {
      continue;
    }
    const sim::ProfileReport& report = profiles_[static_cast<std::size_t>(pi)];
    if (report.events.empty()) {
      continue;
    }
    std::vector<sim::TraceEvent> slices;
    const double extent = sim::collect_launch_slices(report, 0, slices);
    device.emplace(static_cast<int>(i), std::make_pair(std::move(slices), extent));
  }

  // Bottom-up span durations: max(native, device extent, Σ anchored spans).
  // Spans are stored in begin order, so every anchor precedes its spans.
  std::vector<double> dur(n, 0);
  std::vector<double> anchored(n, 0);
  for (std::size_t i = n; i-- > 0;) {
    double d = std::max(span_native_us(spans_[i]), anchored[i]);
    if (const auto it = device.find(static_cast<int>(i)); it != device.end()) {
      d = std::max(d, it->second.second);
    }
    dur[i] = d;
    if (anchor[i] >= 0) {
      anchored[static_cast<std::size_t>(anchor[i])] += d;
    }
  }

  // Top-down timestamps in begin order: each span starts where the previous
  // span of its anchor ended; top-level spans share one cursor per lane.
  std::vector<double> ts(n, 0);
  std::vector<double> cursor(n, 0);
  double top_cursor[2] = {0, 0};  // modeled lane, host lane
  for (std::size_t i = 0; i < n; ++i) {
    double& from = anchor[i] >= 0 ? cursor[static_cast<std::size_t>(anchor[i])]
                                  : top_cursor[host_clock(i) ? 1 : 0];
    ts[i] = from;
    from += dur[i];
    cursor[i] = ts[i];
  }

  std::vector<sim::TraceEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    sim::TraceEvent e;
    e.name = spans_[i].name;
    e.pid = sim::kEnginePid;
    e.tid = host_clock(i) ? sim::kEngineHostTid : 0;
    e.ts_us = ts[i];
    e.dur_us = dur[i];
    e.span = static_cast<int>(i);
    e.host_clock = host_clock(i);
    events.push_back(std::move(e));
    if (const auto it = device.find(static_cast<int>(i)); it != device.end()) {
      for (sim::TraceEvent& d : it->second.first) {
        d.pid = sim::kDevicePid + spans_[i].device;
        d.ts_us += ts[i];
        d.span = static_cast<int>(i);
        events.push_back(std::move(d));
      }
    }
  }
  return events;
}

std::string Telemetry::chrome_trace_json() const {
  return sim::chrome_trace_json(build_trace());
}

std::string Telemetry::metrics_json(bool include_host) const {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.field("schema", met::kMetricsSchema);
  registry_.write_json_sections(w, include_host);
  if (include_host) {
    // Exact per-phase second totals (not quantized): the CI span-sum check
    // compares Σ phase spans against the multiply span from these. Exact
    // doubles are nondeterministic across configs, hence host-gated.
    struct Agg {
      std::uint64_t count = 0;
      double host_seconds = 0;
      double modeled_seconds = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const SpanRecord& s : spans_) {
      Agg& a = by_name[s.name];
      ++a.count;
      a.host_seconds += s.host_seconds;
      if (s.modeled_seconds >= 0) {
        a.modeled_seconds += s.modeled_seconds;
      }
    }
    w.key("spans");
    w.begin_array();
    for (const auto& [name, agg] : by_name) {
      w.begin_object();
      w.field("name", name);
      w.field("count", agg.count);
      w.field("host_seconds", agg.host_seconds);
      w.field("modeled_seconds", agg.modeled_seconds);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.take();
}

std::string Telemetry::metrics_prometheus(bool include_host) const {
  return registry_.prometheus(include_host);
}

}  // namespace spaden
