// spaden-prof: an opt-in Nsight-Compute-style profiler for the simulator.
//
// Three views of one kernel launch, all derived from the same KernelStats
// counters the timing model consumes:
//
//  * ranges   — kernels bracket phases with WarpCtx::range_push/pop("decode")
//               (NVTX-style). The profiler snapshots the executing thread's
//               counters at push and pop and accumulates the delta per range
//               name, so each phase gets its own counter set and roofline
//               attribution (which resource the phase is bound by, and the
//               seconds it contributes at the launch's occupancy). This is
//               the paper's Fig. 8 decode/MMA/extract breakdown, measured
//               instead of ablated.
//  * timeline — per-warp begin/end events (and the range events inside them)
//               are recorded per virtual SM and flattened into TraceEvents,
//               with timestamps synthesized from the modeled per-warp cost.
//               One lane per virtual SM makes the parallel launcher's load
//               imbalance visible. The same TraceEvents, with engine spans
//               around them, make spaden-telemetry's stitched trace; one
//               writer renders both as Chrome chrome://tracing JSON.
//  * per-SM   — each virtual SM's aggregate counters and modeled seconds,
//               plus a max/mean imbalance factor.
//
// Recording mirrors spaden-sancheck: each simulation thread appends to its
// own ProfShard (lock-free), and analysis runs on the host thread after the
// launch joins. Shards are merged in ascending warp order, so per-range
// counters, their order, and the report JSON are identical for any
// SPADEN_SIM_THREADS (the per-SM section excepted — its shape *is* the
// thread count). Profiling is off the timing path twice over: disabled, the
// hooks cost one null-pointer test; enabled, the profiler only reads
// counters and never charges any, so modeled time is bit-identical either
// way (tested).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/stats.hpp"

namespace spaden {
class JsonWriter;
}

namespace spaden::sim {

/// Report-schema identifier, bumped on breaking layout changes.
inline constexpr const char* kProfSchema = "spaden-prof-v1";

enum class ProfEventKind : std::uint8_t { WarpBegin = 0, WarpEnd, RangeBegin, RangeEnd };

/// One timeline event: the owning thread's counter snapshot at a warp or
/// range boundary. `name_id` indexes ProfileReport::range_names for range
/// events and is kNoName for warp events.
struct ProfEvent {
  static constexpr std::uint16_t kNoName = 0xFFFF;
  std::uint64_t warp = 0;
  KernelStats snap;
  std::uint16_t name_id = kNoName;
  std::uint16_t sm = 0;  ///< shard (virtual SM) index, filled during analysis
  ProfEventKind kind = ProfEventKind::WarpBegin;
};

/// Total timeline-event budget of one profiled launch, split evenly across
/// shards. Beyond it events stop (the trace covers a prefix and the report
/// is marked truncated); range accumulation is unaffected by the cap.
inline constexpr std::size_t kProfMaxEvents = std::size_t{1} << 18;

struct ProfileReport;

/// Per-simulation-thread recorder; owned by Device::launch while a profiled
/// launch is in flight. All mutation happens on one worker thread.
class ProfShard {
 public:
  explicit ProfShard(std::size_t max_events) : max_events_(max_events) {}

  /// Capacity-preserving clear (shard pooling): equivalent to constructing a
  /// fresh shard, but the event buffer keeps its allocation, so repeat
  /// launches stop paying the per-launch shard malloc traffic.
  void reset(std::size_t max_events) {
    max_events_ = max_events;
    stats_ = nullptr;
    initial_ = KernelStats{};
    total_ = KernelStats{};
    warp_ = 0;
    warps_ = 0;
    depth_ = 0;
    truncated_ = false;
    ranges_.clear();
    events_.clear();
  }

  /// Bind to the counter block the owning thread charges into.
  void attach(const KernelStats* stats) {
    stats_ = stats;
    initial_ = *stats;
  }

  void begin_warp(std::uint64_t warp) {
    warp_ = warp;
    depth_ = 0;  // defensive: a range can never leak across warps
    ++warps_;
    push_event(ProfEventKind::WarpBegin, ProfEvent::kNoName);
  }

  void end_warp() { push_event(ProfEventKind::WarpEnd, ProfEvent::kNoName); }

  void range_push(const char* name);
  void range_pop();

  static constexpr int kMaxDepth = 16;

  /// One open range of the executing warp. `snap` is the counter snapshot
  /// at the latest push *or resume*; `partial` accumulates the counter
  /// delta of earlier residency intervals of a warp the fiber scheduler
  /// suspended while this range was open (zero on the serial path, so pop
  /// arithmetic is unchanged there).
  struct Frame {
    std::uint16_t name_id = 0;
    KernelStats snap;
    KernelStats partial;
  };

  /// Saved mid-kernel range state of one suspended warp. The scheduler owns
  /// one per resident-warp slot; the counters other warps charge while this
  /// warp is suspended never leak into its ranges.
  struct WarpState {
    std::uint64_t warp = 0;
    int depth = 0;
    Frame frames[kMaxDepth];
  };

  /// Fiber-scheduler hooks: close the executing warp's timeline slice (so
  /// interleaving is visible in the chrome trace) and park its open-range
  /// stack in `out`; reopen it later with fresh counter snapshots. Between
  /// suspend and resume the shard may record any number of other warps.
  void suspend_warp(WarpState& out);
  void resume_warp(const WarpState& in);

  /// Called on the host after the worker loop: snapshot the shard's total
  /// counter delta (the per-SM view).
  void finish() { total_ = *stats_ - initial_; }

 private:
  friend ProfileReport profile_analyze(std::string kernel_name, const DeviceSpec& spec,
                                       const KernelStats& launch_stats,
                                       const TimeBreakdown& launch_time,
                                       std::vector<ProfShard>& shards);

  /// Per-range accumulator, in first-push order within the shard.
  struct RangeAccum {
    std::string name;
    KernelStats stats;
    std::uint64_t invocations = 0;
  };

  std::uint16_t intern(const char* name);
  void push_event(ProfEventKind kind, std::uint16_t name_id) {
    if (events_.size() >= max_events_) {
      truncated_ = true;
      return;
    }
    events_.push_back(ProfEvent{warp_, *stats_, name_id, 0, kind});
  }

  std::size_t max_events_;
  const KernelStats* stats_ = nullptr;
  KernelStats initial_;
  KernelStats total_;
  std::uint64_t warp_ = 0;
  std::uint64_t warps_ = 0;
  int depth_ = 0;
  Frame stack_[kMaxDepth];
  bool truncated_ = false;
  std::vector<RangeAccum> ranges_;
  std::vector<ProfEvent> events_;
};

/// One named phase of the launch, with the counters its push/pop intervals
/// accumulated and their roofline attribution.
struct RangeProfile {
  std::string name;
  std::uint64_t invocations = 0;
  KernelStats stats;
  /// Full roofline breakdown of this range's counters at the launch's
  /// occupancy; `time.bound_by()` names what the phase itself is limited by.
  TimeBreakdown time;
  /// Seconds attributed along the LAUNCH's binding compute resource. Unlike
  /// `time.total` (the range's own max term — ranges bound by different
  /// resources overlap on hardware and those maxima are not additive), these
  /// shares sum with unattributed_seconds() to exactly the launch's compute
  /// time, so a Fig. 8-style breakdown adds up to the whole.
  double attributed = 0;
  [[nodiscard]] double seconds() const { return attributed; }
};

/// One virtual SM's share of the launch.
struct SmProfile {
  int sm = 0;
  std::uint64_t warps = 0;
  KernelStats stats;
  TimeBreakdown time;
  [[nodiscard]] double seconds() const { return time.total; }
};

/// Result of profiling one kernel launch.
struct ProfileReport {
  bool enabled = false;
  bool truncated = false;  ///< timeline-event cap hit; trace covers a prefix
  std::string kernel_name;
  /// The spec the launch was timed with (Device::timing_spec()); the
  /// timeline's slices are timed from it too.
  DeviceSpec spec;
  double occupancy = 0;  ///< the factor applied to every attribution below
  KernelStats stats;     ///< launch totals
  TimeBreakdown time;    ///< launch modeled time (includes t_launch)
  std::vector<RangeProfile> ranges;  ///< first-seen (grid) order
  std::vector<SmProfile> sms;
  /// Timeline events in shard order (ascending warp ranges). Present in the
  /// reports kept by Device::profile_log(); cleared in the copy embedded in
  /// LaunchResult to keep launch results light.
  std::vector<ProfEvent> events;
  std::vector<std::string> range_names;  ///< ProfEvent::name_id resolution

  /// Seconds attributed to ranges (along the launch's binding compute
  /// resource) and the remainder of the launch's compute total
  /// (total - t_launch) no range covered.
  [[nodiscard]] double ranged_seconds() const;
  [[nodiscard]] double unattributed_seconds() const;
  /// Load imbalance across virtual SMs: max/mean of per-SM seconds (1.0 =
  /// perfectly balanced; meaningful only with >= 2 SMs).
  [[nodiscard]] double sm_imbalance() const;

  /// Human-readable per-kernel report (ranges, roofline position, per-SM).
  [[nodiscard]] std::string summary() const;
  /// Structured report. `include_sms` = false omits the per-SM section,
  /// whose shape depends on SPADEN_SIM_THREADS; everything else is
  /// byte-identical for any thread count.
  void to_json(JsonWriter& w, bool include_sms = true) const;
};

/// Merge the recorded shards of one launch into a report. Shards must be
/// ordered by worker index (= ascending warp ranges), which makes range
/// order and counters equal to the serial launcher's.
[[nodiscard]] ProfileReport profile_analyze(std::string kernel_name, const DeviceSpec& spec,
                                            const KernelStats& launch_stats,
                                            const TimeBreakdown& launch_time,
                                            std::vector<ProfShard>& shards);

/// Chrome process ids of a trace: the engine's span lanes, and device d's
/// virtual-SM lanes at kDevicePid + d. The engine process has one lane per
/// clock: modeled-clock spans at tid 0, host-clock spans at kEngineHostTid.
inline constexpr int kEnginePid = 0;
inline constexpr int kDevicePid = 1;
inline constexpr int kEngineHostTid = 1;

/// One complete ("X") event of a chrome trace: an engine span, or a warp's
/// residency interval or a range segment inside it, in microseconds.
struct TraceEvent {
  std::string name;
  int pid = kDevicePid;  ///< kEnginePid, or kDevicePid + device index
  int tid = 0;           ///< engine lane (0 or kEngineHostTid); virtual SM on a device
  std::uint64_t warp = 0;
  double ts_us = 0;
  double dur_us = 0;
  int span = -1;  ///< owning span index: self for engine spans, the
                  ///< enclosing launch span for device slices
  bool host_clock = false;  ///< an engine span timed on the host clock
};

/// Replay one launch's timeline events into device slices at kDevicePid
/// starting at `base_us` (one lane per virtual SM, durations from the
/// modeled per-warp component time on launch.spec). Returns the end
/// timestamp: the furthest lane cursor — every appended slice lies within
/// [base_us, returned end].
double collect_launch_slices(const ProfileReport& launch, double base_us,
                             std::vector<TraceEvent>& out);

/// The chrome://tracing document ("traceEvents") of a list of events:
/// process and lane metadata, one X event each, and otherData. The one
/// trace writer — every trace the library emits goes through it.
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// Trace of a raw Device's profile log: its launches laid out back-to-back
/// at kDevicePid, timestamps in microseconds of modeled time.
[[nodiscard]] std::string chrome_trace_json(const std::vector<ProfileReport>& log);

}  // namespace spaden::sim
