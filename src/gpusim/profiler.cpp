#include "gpusim/profiler.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"

namespace spaden::sim {

std::uint16_t ProfShard::intern(const char* name) {
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i].name == name) {
      return static_cast<std::uint16_t>(i);
    }
  }
  SPADEN_REQUIRE(ranges_.size() < ProfEvent::kNoName, "too many distinct range names");
  ranges_.push_back(RangeAccum{name, {}, 0});
  return static_cast<std::uint16_t>(ranges_.size() - 1);
}

void ProfShard::range_push(const char* name) {
  SPADEN_REQUIRE(depth_ < kMaxDepth, "profiler range stack overflow (depth %d) at '%s'",
                 depth_, name);
  const std::uint16_t id = intern(name);
  stack_[depth_].name_id = id;
  stack_[depth_].snap = *stats_;
  stack_[depth_].partial = KernelStats{};
  ++depth_;
  push_event(ProfEventKind::RangeBegin, id);
}

void ProfShard::range_pop() {
  SPADEN_REQUIRE(depth_ > 0, "profiler range_pop without matching range_push (warp %llu)",
                 static_cast<unsigned long long>(warp_));
  --depth_;
  const Frame& frame = stack_[depth_];
  RangeAccum& accum = ranges_[frame.name_id];
  KernelStats delta = *stats_ - frame.snap;
  delta += frame.partial;  // residency intervals before the last suspension
  accum.stats += delta;
  ++accum.invocations;
  push_event(ProfEventKind::RangeEnd, frame.name_id);
}

void ProfShard::suspend_warp(WarpState& out) {
  out.warp = warp_;
  out.depth = depth_;
  // Close the open ranges innermost-first, then the warp slice itself, so
  // the timeline replay sees properly nested begin/end pairs and renders
  // each residency interval as its own slice.
  for (int i = depth_ - 1; i >= 0; --i) {
    push_event(ProfEventKind::RangeEnd, stack_[i].name_id);
  }
  push_event(ProfEventKind::WarpEnd, ProfEvent::kNoName);
  for (int i = 0; i < depth_; ++i) {
    Frame frame = stack_[i];
    frame.partial += *stats_ - frame.snap;
    out.frames[i] = frame;
  }
  depth_ = 0;
}

void ProfShard::resume_warp(const WarpState& in) {
  warp_ = in.warp;
  depth_ = in.depth;
  push_event(ProfEventKind::WarpBegin, ProfEvent::kNoName);
  for (int i = 0; i < depth_; ++i) {
    stack_[i] = in.frames[i];
    stack_[i].snap = *stats_;  // the new residency interval starts here
    push_event(ProfEventKind::RangeBegin, stack_[i].name_id);
  }
}

namespace {

/// The breakdown term named by bound_by(). Used to read each range's
/// contribution along the launch's binding compute resource — those terms
/// are linear in the counters, so they are exactly additive across disjoint
/// ranges (the per-range maxima are not: phases bound by different resources
/// overlap on hardware).
double term_by_name(const TimeBreakdown& t, const char* name) {
  if (std::strcmp(name, "dram") == 0) {
    return t.t_dram;
  }
  if (std::strcmp(name, "l2") == 0) {
    return t.t_l2;
  }
  if (std::strcmp(name, "lsu") == 0) {
    return t.t_lsu;
  }
  if (std::strcmp(name, "cuda") == 0) {
    return t.t_cuda;
  }
  if (std::strcmp(name, "stall") == 0) {
    return t.t_stall;
  }
  return t.t_tc;
}

}  // namespace

double ProfileReport::ranged_seconds() const {
  double s = 0;
  for (const RangeProfile& r : ranges) {
    s += r.seconds();
  }
  return s;
}

double ProfileReport::unattributed_seconds() const {
  return std::max(0.0, (time.total - time.t_launch) - ranged_seconds());
}

double ProfileReport::sm_imbalance() const {
  if (sms.size() < 2) {
    return 1.0;
  }
  double max_s = 0;
  double sum_s = 0;
  for (const SmProfile& sm : sms) {
    max_s = std::max(max_s, sm.seconds());
    sum_s += sm.seconds();
  }
  const double mean = sum_s / static_cast<double>(sms.size());
  return mean > 0 ? max_s / mean : 1.0;
}

ProfileReport profile_analyze(std::string kernel_name, const DeviceSpec& spec,
                              const KernelStats& launch_stats,
                              const TimeBreakdown& launch_time,
                              std::vector<ProfShard>& shards) {
  ProfileReport report;
  report.enabled = true;
  report.kernel_name = std::move(kernel_name);
  report.spec = spec;
  report.stats = launch_stats;
  report.time = launch_time;
  report.occupancy = launch_occupancy(spec, launch_stats.warps_launched);
  // Stall cycles spread over the SMs the launch occupies (estimate_time's
  // divisor); the same divisor for every subset keeps t_stall additive
  // across ranges and SM shares.
  const double stall_sms =
      std::min(static_cast<double>(std::max<std::uint64_t>(launch_stats.warps_launched, 1)),
               static_cast<double>(spec.sm_count));

  // Merge per-range accumulators, per-SM shares and the timeline in shard
  // order. Shards cover ascending, contiguous warp ranges, so first-seen
  // range order across the concatenation equals first-seen order over the
  // whole grid — the serial launcher's.
  for (std::size_t t = 0; t < shards.size(); ++t) {
    ProfShard& shard = shards[t];
    report.truncated = report.truncated || shard.truncated_;

    // Shard-local name ids -> merged table indices (for the shard's events).
    std::vector<std::uint16_t> remap(shard.ranges_.size());
    for (std::size_t i = 0; i < shard.ranges_.size(); ++i) {
      const ProfShard::RangeAccum& accum = shard.ranges_[i];
      auto it = std::find_if(report.ranges.begin(), report.ranges.end(),
                             [&](const RangeProfile& r) { return r.name == accum.name; });
      if (it == report.ranges.end()) {
        report.ranges.push_back(RangeProfile{accum.name, 0, {}, {}});
        it = std::prev(report.ranges.end());
      }
      it->stats += accum.stats;
      it->invocations += accum.invocations;
      remap[i] = static_cast<std::uint16_t>(it - report.ranges.begin());
    }

    SmProfile sm;
    sm.sm = static_cast<int>(t);
    sm.warps = shard.warps_;
    sm.stats = shard.total_;
    sm.stats.warps_launched = 0;
    sm.time = estimate_component_time(spec, sm.stats, report.occupancy, stall_sms);
    report.sms.push_back(std::move(sm));

    for (ProfEvent& e : shard.events_) {
      e.sm = static_cast<std::uint16_t>(t);
      if (e.name_id != ProfEvent::kNoName) {
        e.name_id = remap[e.name_id];
      }
    }
    report.events.insert(report.events.end(), shard.events_.begin(), shard.events_.end());
    shard.events_.clear();
    shard.events_.shrink_to_fit();
  }

  // The launch's compute breakdown (no t_launch; estimate_component_time
  // ignores warps_launched) names the binding resource every range is
  // attributed along. Since range counters are disjoint subsets of the
  // launch's, the attributed shares plus the unattributed remainder sum to
  // exactly the launch's compute time.
  const TimeBreakdown launch_compute =
      estimate_component_time(spec, launch_stats, report.occupancy, stall_sms);
  const char* bound = launch_compute.bound_by();
  for (RangeProfile& r : report.ranges) {
    r.stats.warps_launched = 0;  // a phase is not a launch
    r.time = estimate_component_time(spec, r.stats, report.occupancy, stall_sms);
    r.attributed = term_by_name(r.time, bound);
    if (std::strcmp(bound, "stall") != 0) {
      // A range's exposed stalls are wall-clock on top of its share of the
      // binding resource; t_stall is linear in the counter, so the shares
      // plus the unattributed remainder still sum exactly to the launch's
      // compute time. (When the launch itself is stall-bound, the term IS
      // the attribution above.)
      r.attributed += r.time.t_stall;
    }
    report.range_names.push_back(r.name);
  }
  return report;
}

std::string ProfileReport::summary() const {
  std::string out = strfmt(
      "=== spaden-prof: %s on %s ===\n"
      "warps %llu, occupancy %.3f, modeled %.3f us (bound by %s), %llu timeline events%s\n",
      kernel_name.c_str(), spec.name.c_str(),
      static_cast<unsigned long long>(stats.warps_launched), occupancy, time.total * 1e6,
      time.bound_by(), static_cast<unsigned long long>(events.size()),
      truncated ? " [truncated]" : "");
  if (stats.exposed_stall_cycles != 0) {
    out += strfmt("exposed stalls: %llu cycles -> t_stall %.3f us\n",
                  static_cast<unsigned long long>(stats.exposed_stall_cycles),
                  time.t_stall * 1e6);
  }

  if (!ranges.empty()) {
    Table table({"range", "calls", "time us", "share %", "bound", "dram B", "sectors",
                 "wavefronts", "cuda ops", "mma"});
    const double compute_total = std::max(time.total - time.t_launch, 1e-30);
    for (const RangeProfile& r : ranges) {
      table.add_row({r.name, fmt_si(static_cast<double>(r.invocations)),
                     fmt_double(r.seconds() * 1e6, 3),
                     fmt_double(100.0 * r.seconds() / compute_total, 1), r.time.bound_by(),
                     fmt_si(static_cast<double>(r.stats.dram_bytes)),
                     fmt_si(static_cast<double>(r.stats.sectors)),
                     fmt_si(static_cast<double>(r.stats.wavefronts)),
                     fmt_si(static_cast<double>(r.stats.cuda_ops)),
                     fmt_si(static_cast<double>(r.stats.tc_mma_m16n16k16 +
                                                r.stats.tc_mma_m8n8k4))});
    }
    table.add_row({"(unattributed)", "", fmt_double(unattributed_seconds() * 1e6, 3),
                   fmt_double(100.0 * unattributed_seconds() / compute_total, 1), "", "", "",
                   "", "", ""});
    out += table.to_string();
  } else {
    out += "no ranges recorded (kernel not instrumented with range_push/pop)\n";
  }

  if (sms.size() >= 2) {
    out += strfmt("per-SM imbalance: max/mean = %.3f over %zu virtual SMs\n", sm_imbalance(),
                  sms.size());
    Table table({"sm", "warps", "time us", "bound", "dram B", "sectors", "cuda ops"});
    for (const SmProfile& sm : sms) {
      table.add_row({fmt_double(sm.sm, 0), fmt_si(static_cast<double>(sm.warps)),
                     fmt_double(sm.seconds() * 1e6, 3), sm.time.bound_by(),
                     fmt_si(static_cast<double>(sm.stats.dram_bytes)),
                     fmt_si(static_cast<double>(sm.stats.sectors)),
                     fmt_si(static_cast<double>(sm.stats.cuda_ops))});
    }
    out += table.to_string();
  }
  return out;
}

void ProfileReport::to_json(JsonWriter& w, bool include_sms) const {
  w.begin_object();
  w.field("schema", kProfSchema);
  w.field("kernel", kernel_name);
  w.field("device", spec.name);
  w.field("occupancy", occupancy);
  w.field("truncated", truncated);
  w.key("stats");
  stats.to_json(w);
  w.key("time");
  time.to_json(w);
  w.key("ranges");
  w.begin_array();
  const double compute_total = std::max(time.total - time.t_launch, 1e-30);
  for (const RangeProfile& r : ranges) {
    w.begin_object();
    w.field("name", r.name);
    w.field("invocations", r.invocations);
    w.field("seconds", r.seconds());
    w.field("share", r.seconds() / compute_total);
    w.key("stats");
    r.stats.to_json(w);
    w.key("time");
    r.time.to_json(w);
    w.end_object();
  }
  w.end_array();
  w.field("ranged_seconds", ranged_seconds());
  w.field("unattributed_seconds", unattributed_seconds());
  if (include_sms) {
    w.key("sms");
    w.begin_array();
    for (const SmProfile& sm : sms) {
      w.begin_object();
      w.field("sm", sm.sm);
      w.field("warps", sm.warps);
      w.field("seconds", sm.seconds());
      w.key("stats");
      sm.stats.to_json(w);
      w.end_object();
    }
    w.end_array();
    w.field("sm_imbalance", sm_imbalance());
  }
  w.end_object();
}

namespace {

double component_us(const DeviceSpec& spec, const KernelStats& now, const KernelStats& then,
                    double occupancy) {
  KernelStats delta = now - then;
  delta.warps_launched = 0;
  return estimate_component_time(spec, delta, occupancy).total * 1e6;
}

void trace_meta(JsonWriter& w, const char* kind, int pid, int tid, const std::string& name) {
  w.begin_object();
  w.field("name", kind);
  w.field("ph", "M");
  w.field("pid", pid);
  if (tid >= 0) {
    w.field("tid", tid);
  }
  w.key("args");
  w.begin_object();
  w.field("name", name);
  w.end_object();
  w.end_object();
}

}  // namespace

double collect_launch_slices(const ProfileReport& launch, double base_us,
                             std::vector<TraceEvent>& out) {
  std::vector<double> cursor_us(std::max<std::size_t>(launch.sms.size(), 1), base_us);
  // Per-SM replay state: the warp currently open on that lane plus the
  // range stack (events arrive grouped by shard, i.e. by SM).
  struct Open {
    bool in_warp = false;
    std::uint64_t warp = 0;
    double warp_ts_us = 0;
    KernelStats warp_snap;
    std::vector<std::pair<std::uint16_t, KernelStats>> stack;
  };
  std::vector<Open> open(cursor_us.size());

  for (const ProfEvent& e : launch.events) {
    const int sm = e.sm;
    Open& o = open[static_cast<std::size_t>(sm)];
    switch (e.kind) {
      case ProfEventKind::WarpBegin:
        o.in_warp = true;
        o.warp = e.warp;
        o.warp_ts_us = cursor_us[static_cast<std::size_t>(sm)];
        o.warp_snap = e.snap;
        o.stack.clear();
        break;
      case ProfEventKind::WarpEnd: {
        if (!o.in_warp) {
          break;  // begin fell past the event cap
        }
        const double dur = component_us(launch.spec, e.snap, o.warp_snap, launch.occupancy);
        out.push_back(
            TraceEvent{launch.kernel_name, kDevicePid, sm, o.warp, o.warp_ts_us, dur});
        cursor_us[static_cast<std::size_t>(sm)] = o.warp_ts_us + dur;
        o.in_warp = false;
        break;
      }
      case ProfEventKind::RangeBegin:
        if (o.in_warp) {
          o.stack.emplace_back(e.name_id, e.snap);
        }
        break;
      case ProfEventKind::RangeEnd: {
        if (!o.in_warp || o.stack.empty()) {
          break;
        }
        const auto [name_id, snap] = o.stack.back();
        o.stack.pop_back();
        // Both ends are cumulative offsets from the warp start. Component
        // time is monotone in the (monotone) counters, so begin <= end <=
        // the warp's own end and nested ranges stay nested; timing a range
        // on its own counters instead would let the max-based component
        // times of a warp's ranges sum past the warp.
        const double begin_off = component_us(launch.spec, snap, o.warp_snap, launch.occupancy);
        const double end_off = component_us(launch.spec, e.snap, o.warp_snap, launch.occupancy);
        const double ts = o.warp_ts_us + begin_off;
        const double dur = end_off - begin_off;
        const std::string name = name_id < launch.range_names.size()
                                     ? launch.range_names[name_id]
                                     : std::string("range");
        out.push_back(TraceEvent{name, kDevicePid, sm, o.warp, ts, dur});
        break;
      }
    }
  }
  double end_us = base_us;
  for (const double c : cursor_us) {
    end_us = std::max(end_us, c);
  }
  return end_us;
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  JsonWriter w(/*pretty=*/false);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  trace_meta(w, "process_name", kEnginePid, -1, "spaden engine (host)");
  trace_meta(w, "thread_name", kEnginePid, 0, "engine phases");
  trace_meta(w, "process_name", kDevicePid, -1, "gpusim device (modeled)");
  // One chrome process per device pid: tid lanes are that device's virtual
  // SMs. Device 0's process is always named; devices 1.. of a
  // gpusim/multidevice group get theirs when they have slices.
  std::map<int, int> max_sm;  // device pid -> max tid seen
  for (const TraceEvent& e : events) {
    if (e.pid >= kDevicePid) {
      auto [it, inserted] = max_sm.emplace(e.pid, e.tid);
      if (!inserted) {
        it->second = std::max(it->second, e.tid);
      }
    }
  }
  if (const auto it = max_sm.find(kDevicePid); it != max_sm.end()) {
    for (int sm = 0; sm <= it->second; ++sm) {
      trace_meta(w, "thread_name", kDevicePid, sm, strfmt("virtual SM %d", sm));
    }
  }
  for (const auto& [pid, sms] : max_sm) {
    if (pid == kDevicePid) {
      continue;
    }
    trace_meta(w, "process_name", pid, -1,
               strfmt("gpusim device %d (modeled)", pid - kDevicePid));
    for (int sm = 0; sm <= sms; ++sm) {
      trace_meta(w, "thread_name", pid, sm, strfmt("virtual SM %d", sm));
    }
  }

  for (const TraceEvent& e : events) {
    w.begin_object();
    w.field("name", e.name);
    w.field("ph", "X");
    w.field("pid", e.pid);
    w.field("tid", e.tid);
    w.field("ts", e.ts_us);
    w.field("dur", e.dur_us);
    w.key("args");
    w.begin_object();
    if (e.pid >= kDevicePid) {
      w.field("warp", e.warp);
    } else {
      w.field("span", e.span);
    }
    w.field("clock", e.host_clock ? "host" : "modeled");
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.field("generator", "spaden-telemetry");
  w.field("schema", met::kMetricsSchema);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string chrome_trace_json(const std::vector<ProfileReport>& log) {
  std::vector<TraceEvent> events;
  double base_us = 0;  // launches laid out back-to-back
  for (const ProfileReport& launch : log) {
    base_us = collect_launch_slices(launch, base_us, events);
  }
  return chrome_trace_json(events);
}

}  // namespace spaden::sim
