// The simulated GPU: memory, caches, counters and kernel launching.
//
// A kernel is any callable `void(WarpCtx&, std::uint64_t warp_id)`; the
// launcher runs it for every warp in the grid. The model is warp-synchronous,
// so any kernel that would be correct under CUDA's weak inter-warp ordering
// (our kernels only communicate across warps through atomics) computes the
// same result regardless of execution order.
//
// Execution is parallelized across host threads by modeling what real
// hardware does: the warp grid is partitioned into contiguous chunks
// ("virtual SMs"), each running on its own std::thread with a private L1
// model, a private MemoryController and private KernelStats. Per-thread
// stats are merged after the join, so estimate_time sees the same aggregate
// counters either way. The thread count comes from SPADEN_SIM_THREADS
// (default: hardware_concurrency); threads=1 runs the serial launcher: one
// virtual SM, warps in grid order.
//
// Cache models: each virtual SM owns an L1 of the full per-SM capacity and
// an L2 slice of capacity/T. Both are built at the first launch for the
// current thread count T, persist (warm) across launches, and are rebuilt
// cold by the next launch after a thread-count change. At T=1 the one slice
// is the flat L2 of the whole device. At T>1 the private slices keep every
// counter a pure function of the program, the spec, the schedule and T;
// they drift slightly from T=1's because a slice cannot see another SM's
// reuse of x (docs/performance_model.md, "L2 fidelity trade-off").
//
// Fidelity note (documented limitation, see docs/performance_model.md): by
// default warps run to completion in grid order within a chunk rather than
// the hardware's interleaved schedule, which gives the cache models mildly
// optimistic temporal locality. The warp scheduler (gpusim/sched,
// set_sched / SPADEN_SIM_SCHED / --sched) closes this: `rr` interleaves an
// occupancy-limited window of resident warps per virtual SM on stackful
// fibers, deterministic at a fixed thread count, and additionally models
// issue/latency cycles so stalls nothing could cover feed estimate_time's
// t_stall term. `serial` (the raw-Device default; the engine defaults to
// rr since the recalibration) is the classic launcher bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/controller.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/sched/policy.hpp"
#include "gpusim/sched/scheduler.hpp"
#include "gpusim/stats.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/warp.hpp"

namespace spaden::sim {

/// Simulation thread count from the environment: SPADEN_SIM_THREADS if set
/// (clamped to [1, 256]), otherwise std::thread::hardware_concurrency().
[[nodiscard]] int default_sim_threads();

/// Sanitizer default from the environment: SPADEN_SANCHECK set to anything
/// but "" or "0" enables spaden-sancheck on new devices.
[[nodiscard]] bool default_sancheck();

/// One entry of the Device's opt-in launch log (spaden-telemetry): the
/// per-launch identity and cost summary the engine turns into launch spans.
/// Much lighter than a ProfileReport — recording one is a string copy and a
/// clock read, so the log can stay on for every telemetered multiply
/// without the profiler's shard machinery.
struct LaunchRecord {
  std::string kernel_name;
  std::uint64_t warps = 0;
  double modeled_seconds = 0;  ///< TimeBreakdown::total of this launch
  double t_launch = 0;         ///< fixed launch-overhead share of the above
  double host_seconds = 0;     ///< host wall-clock the simulator spent on it
  /// Logical-multiply tag (Device::set_batch_id): launches sharing an id
  /// belong to one logical multiply, so multi-launch batches (one engine
  /// multiply_batch over k right-hand sides) can be regrouped instead of
  /// read as one flat launch sequence. 0 = untagged.
  std::uint64_t batch_id = 0;
};

/// Result of one kernel launch: measured counters + modeled time.
struct LaunchResult {
  std::string kernel_name;
  KernelStats stats;
  TimeBreakdown time;
  /// spaden-sancheck findings for this launch (enabled=false when off).
  SanitizerReport sanitizer;
  /// spaden-prof report for this launch (enabled=false when off). Timeline
  /// events are kept in Device::profile_log() only, not in this copy.
  ProfileReport profile;

  [[nodiscard]] double seconds() const { return time.total; }
  /// SpMV throughput metric used throughout the paper's figures.
  [[nodiscard]] double gflops(std::uint64_t nnz) const {
    return 2.0 * static_cast<double>(nnz) / time.total / 1e9;
  }
};

class Device {
 public:
  /// Throws spaden::Error when the environment holds a SPADEN_* name that
  /// is not a knob (check_env_names).
  explicit Device(DeviceSpec spec);

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// The spec the timing model should read constants from: spec_ as-is for
  /// the serial policy, or a copy with the interleaved-calibrated issue
  /// constants (lsu_wavefronts_per_cycle_ilv / cuda_issue_efficiency_ilv)
  /// swapped in when warps interleave — the scheduler then charges latency
  /// exposure explicitly, so the serial constants' implicit latency derating
  /// must not be applied twice. Kernels that assemble multi-launch results
  /// by hand should call estimate_time with this, not spec().
  [[nodiscard]] const DeviceSpec& timing_spec() const {
    return sched_.policy == SchedPolicy::Serial ? spec_ : ilv_spec_;
  }

  [[nodiscard]] DeviceMemory& memory() { return memory_; }

  /// Host threads used to execute launches. 1 = the exact serial launcher.
  [[nodiscard]] int sim_threads() const { return threads_; }
  void set_sim_threads(int threads);

  /// Warp scheduling (gpusim/sched): policy Serial runs warps to completion
  /// in grid order (the classic launcher, bit-for-bit); RoundRobin
  /// interleaves an occupancy-limited window of resident warps per virtual
  /// SM, giving the cache models realistic access streams. Deterministic at
  /// a fixed sim_threads().
  [[nodiscard]] const SchedConfig& sched() const { return sched_; }
  void set_sched(const SchedConfig& cfg) { sched_ = cfg; }

  /// Per-warp weights (e.g. nnz per warp) that split the warp grid across
  /// virtual SMs: the parallel launcher always gives each SM one contiguous
  /// warp range, cut where the weight prefix sum crosses equal shares when
  /// the weights match the launch's warp count, and in equal warp counts
  /// otherwise (see partition_bounds). Kernels derive and install these in
  /// do_prepare (block-row popcounts for the bitmap formats, row extents
  /// for the CSR family), so the engine balances power-law matrices
  /// automatically; clearing them after prepare selects the equal-count
  /// split.
  void set_warp_weights(std::vector<std::uint64_t> weights) {
    warp_weights_ = std::move(weights);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& warp_weights() const {
    return warp_weights_;
  }

  /// Weights for one named launch. Multi-launch kernels (csr_adaptive,
  /// DASP) issue secondary launches with different warp counts; with only
  /// the global vector those launches would reuse stale weights whenever
  /// their warp counts happen to collide. A launch first looks up weights
  /// keyed by its own name, then falls back to the global vector, then to
  /// the equal-count split (size mismatches skip a level the same way the
  /// global path always has).
  void set_launch_warp_weights(std::string name, std::vector<std::uint64_t> weights) {
    for (auto& [key, value] : launch_weights_) {
      if (key == name) {
        value = std::move(weights);
        return;
      }
    }
    launch_weights_.emplace_back(std::move(name), std::move(weights));
  }
  void clear_launch_warp_weights() { launch_weights_.clear(); }
  /// Keyed weights for `name` (empty vector when none installed).
  [[nodiscard]] const std::vector<std::uint64_t>& launch_warp_weights(
      std::string_view name) const {
    static const std::vector<std::uint64_t> kNone;
    for (const auto& [key, value] : launch_weights_) {
      if (key == name) {
        return value;
      }
    }
    return kNone;
  }

  /// Warps that must run on the same virtual SM as the warp before them
  /// (`tied[w] != 0`) in launches named `name`: partition_bounds moves every
  /// cut that would land on a tied warp forward past it. The segments of one
  /// split block-row pair combine through an atomic hand-off whose last
  /// arrival does the read-back; on one virtual SM that arrival, and so every
  /// counter, follows the fixed schedule instead of host timing. Applies when
  /// the vector's size matches the launch; an empty vector removes the ties.
  void set_launch_warp_ties(std::string name, std::vector<std::uint8_t> tied) {
    for (auto& [key, value] : launch_ties_) {
      if (key == name) {
        value = std::move(tied);
        return;
      }
    }
    launch_ties_.emplace_back(std::move(name), std::move(tied));
  }

  /// Halo window for multi-device sharding (gpusim/multidevice): x sectors
  /// outside the owned slice count into KernelStats::remote_sectors and,
  /// under an interleaving scheduler, gate the touching warp on the modeled
  /// transfer. Cleared (default) = everything local, zero cost.
  void set_remote_window(const RemoteWindow& window) {
    remote_window_ = window;
    remote_on_ = true;
  }
  void clear_remote_window() {
    remote_on_ = false;
    comm_ready_cycles_ = 0;
  }
  /// SM-clock cycle (per launch, from cycle 0) the modeled halo transfer
  /// lands; remote-touching memory ops cannot complete earlier. Forwarded
  /// to every pooled WarpScheduler.
  void set_comm_ready_cycles(double cycles) { comm_ready_cycles_ = cycles; }
  [[nodiscard]] double comm_ready_cycles() const { return comm_ready_cycles_; }

  /// spaden-sancheck (memcheck + racecheck + sync-lint). Off the timing
  /// path: counters and modeled time are identical with it on or off.
  [[nodiscard]] bool sanitize() const { return sanitize_; }
  void set_sanitize(bool enabled) { sanitize_ = enabled; }

  /// Findings accumulated over every sanitized launch since the last clear
  /// (kernels that issue several launches per logical operation fold into
  /// this even when callers only keep the last LaunchResult).
  [[nodiscard]] const SanitizerReport& sanitizer_log() const { return san_log_; }
  void clear_sanitizer_log() { san_log_ = SanitizerReport{}; }

  /// spaden-prof (ranges + timeline + per-SM imbalance). Off the timing
  /// path: counters and modeled time are identical with it on or off.
  [[nodiscard]] bool profile() const { return profile_; }
  void set_profile(bool enabled) { profile_ = enabled; }

  /// One report per profiled launch since the last clear, in launch order,
  /// with timeline events (feed to chrome_trace_json for a timeline file).
  [[nodiscard]] const std::vector<ProfileReport>& profile_log() const { return prof_log_; }
  void clear_profile_log() { prof_log_.clear(); }

  /// spaden-telemetry launch log: when enabled, every launch appends one
  /// LaunchRecord (name + modeled/host cost). Off the timing path — the
  /// hook is one flag test per *launch*, and modeled time is bit-identical
  /// either way. Parallel to profile_log(): same launches, same order, so
  /// the engine can pair records with profile reports by index.
  [[nodiscard]] bool launch_log_enabled() const { return launch_log_enabled_; }
  void set_launch_log(bool enabled) { launch_log_enabled_ = enabled; }
  [[nodiscard]] const std::vector<LaunchRecord>& launch_log() const { return launch_log_; }
  void clear_launch_log() { launch_log_.clear(); }

  /// Batch tag stamped onto every LaunchRecord until changed (see
  /// LaunchRecord::batch_id). Callers that issue several logical multiplies
  /// back to back (SpmvKernel::run_multi's per-column fallback) draw a fresh
  /// id per multiply with alloc_batch_id(); kernels that launch more than
  /// once per multiply (gunrock, csr_adaptive) keep one id across their
  /// launches by not touching it.
  [[nodiscard]] std::uint64_t batch_id() const { return batch_id_; }
  void set_batch_id(std::uint64_t id) { batch_id_ = id; }
  [[nodiscard]] std::uint64_t alloc_batch_id() { return ++batch_id_counter_; }

  /// Drop cache contents (cold-cache experiments).
  void flush_caches() {
    for (VirtualSm& sm : sms_) {
      sm.l1.flush();
      sm.l2.flush();
    }
  }

  /// Host memory held by the cache models (tag arrays and recency words of
  /// every virtual SM's L1 and L2 slice). Zero before the first launch,
  /// which is when the models are built.
  [[nodiscard]] std::size_t cache_host_bytes() const;

  /// Run `kernel(ctx, warp_id)` for warp_id in [0, num_warps).
  template <typename Kernel>
  LaunchResult launch(std::string_view name, std::uint64_t num_warps, Kernel&& kernel) {
    const Timer launch_timer;  // read only when the launch log is enabled
    LaunchResult result;
    result.kernel_name = std::string(name);
    result.stats.warps_launched = num_warps;
    const std::size_t n = threads_ <= 1 ? 1 : static_cast<std::size_t>(threads_);
    // Pooled per-launch scratch: shard vectors (and the fiber schedulers,
    // via sched_pool_) live on the Device and are reset between launches, so
    // iterating benchmarks stop paying the per-launch allocation traffic.
    std::vector<SanShard>& shards = san_shards_;
    if (sanitize_) {
      const std::size_t cap = std::max<std::size_t>(kSanMaxEvents / n, 1024);
      while (shards.size() > n) {
        shards.pop_back();
      }
      shards.reserve(n);
      for (auto& shard : shards) {
        shard.reset(cap);
      }
      while (shards.size() < n) {
        shards.emplace_back(cap);
      }
    }
    std::vector<ProfShard>& pshards = prof_shards_;
    if (profile_) {
      const std::size_t cap = std::max<std::size_t>(kProfMaxEvents / n, 1024);
      while (pshards.size() > n) {
        pshards.pop_back();
      }
      pshards.reserve(n);
      for (auto& pshard : pshards) {
        pshard.reset(cap);
      }
      while (pshards.size() < n) {
        pshards.emplace_back(cap);
      }
    }
    if (sched_.policy != SchedPolicy::Serial && sched_pool_.size() != n) {
      sched_pool_.resize(n);
    }
    ensure_caches();
    if (threads_ <= 1) {
      run_serial(num_warps, kernel, result.stats, sanitize_ ? &shards[0] : nullptr,
                 profile_ ? &pshards[0] : nullptr);
    } else {
      run_parallel(result.kernel_name, num_warps, kernel, result.stats,
                   sanitize_ ? &shards : nullptr, profile_ ? &pshards : nullptr);
    }
    if (sanitize_) {
      result.sanitizer = sanitize_analyze(result.kernel_name, shards, memory_.registry());
      san_log_.merge(result.sanitizer);
      if (!result.sanitizer.clean()) {
        report_findings(result.sanitizer);
      }
    }
    result.time = estimate_time(timing_spec(), result.stats);
    if (profile_) {
      ProfileReport report =
          profile_analyze(result.kernel_name, timing_spec(), result.stats, result.time, pshards);
      result.profile = report;
      result.profile.events.clear();  // full timeline lives in profile_log()
      prof_log_.push_back(std::move(report));
    }
    if (launch_log_enabled_) {
      launch_log_.push_back(LaunchRecord{result.kernel_name, num_warps, result.time.total,
                                         result.time.t_launch, launch_timer.seconds(),
                                         batch_id_});
    }
    return result;
  }

 private:
  /// One virtual SM: the private cache state of one worker thread. The L1
  /// has the full per-SM capacity; the L2 slice holds 1/T of the device L2
  /// (all of it at T=1). Both persist across launches.
  struct VirtualSm {
    VirtualSm(const DeviceSpec& spec, int num_sms)
        : l1(spec.l1_capacity_bytes, spec.l1_ways, spec.sector_bytes),
          l2(spec.l2_capacity_bytes / static_cast<std::uint64_t>(num_sms), spec.l2_ways,
             spec.sector_bytes) {}
    SectorCache l1;
    SectorCache l2;
  };

  /// Build one VirtualSm per simulation thread, unless the caches already
  /// match threads_. A thread-count change frees the old caches before
  /// building the new ones, so a device never holds two L2 models at once.
  void ensure_caches();
  void ensure_pool();
  /// Per-SM warp-range boundaries (t_count + 1 entries): contiguous chunks
  /// whose boundaries equalize the per-warp weight prefix sums, or
  /// equal-count chunks when no weights match the launch, with no cut on a
  /// warp tied to its predecessor (set_launch_warp_ties). `name` selects
  /// launch-keyed weights before the global vector.
  [[nodiscard]] std::vector<std::uint64_t> partition_bounds(std::string_view name,
                                                            std::uint64_t num_warps) const;
  /// partition_bounds before the ties are applied.
  [[nodiscard]] std::vector<std::uint64_t> weighted_bounds(std::string_view name,
                                                           std::uint64_t num_warps) const;
  /// Print a non-clean per-launch report to stderr (out-of-line: keeps
  /// iostream machinery out of the hot launch template).
  static void report_findings(const SanitizerReport& report);

  /// Type-erased trampoline handed to the warp scheduler, so WarpScheduler
  /// stays a non-template class compiled once.
  template <typename Kernel>
  static void invoke_kernel(void* kernel, WarpCtx& ctx, std::uint64_t warp) {
    (*static_cast<Kernel*>(kernel))(ctx, warp);
  }

  /// Construct-or-reconfigure the pooled scheduler of virtual SM `sm`.
  /// launch() sized sched_pool_ before the workers started, so concurrent
  /// workers only ever touch their own element.
  [[nodiscard]] WarpScheduler& pooled_scheduler(std::size_t sm, std::uint64_t num_warps) {
    std::unique_ptr<WarpScheduler>& slot = sched_pool_[sm];
    const int window = resident_window(spec_, sched_, num_warps);
    const double comm = remote_on_ ? comm_ready_cycles_ : 0;
    if (slot == nullptr) {
      slot = std::make_unique<WarpScheduler>(window, timing_spec(), comm);
    } else {
      slot->reconfigure(window, timing_spec(), comm);
    }
    return *slot;
  }

  /// Run warps [start, start + count) on `ctx`: the classic
  /// run-to-completion loop for policy Serial, or the fiber scheduler for
  /// rr (which also models issue/latency cycles and charges exposed
  /// stalls). `num_warps` is the full launch's warp count (window sizing).
  template <typename Kernel>
  void run_warps(WarpCtx& ctx, std::uint64_t start, std::uint64_t count,
                 std::uint64_t num_warps, std::size_t sm_index, Kernel& kernel,
                 SanShard* shard, ProfShard* pshard) {
    if (sched_.policy == SchedPolicy::Serial) {
      for (std::uint64_t w = start; w < start + count; ++w) {
        if (shard != nullptr) {
          shard->begin_warp(w);
        }
        if (pshard != nullptr) {
          pshard->begin_warp(w);
        }
        kernel(ctx, w);
        if (pshard != nullptr) {
          pshard->end_warp();
        }
      }
    } else {
      using K = std::remove_reference_t<Kernel>;
      WarpScheduler& sched = pooled_scheduler(sm_index, num_warps);
      sched.run(ctx, start, count,
                const_cast<void*>(static_cast<const void*>(std::addressof(kernel))),
                &Device::invoke_kernel<K>);
    }
  }

  template <typename Kernel>
  void run_serial(std::uint64_t num_warps, Kernel& kernel, KernelStats& stats,
                  SanShard* shard, ProfShard* pshard) {
    VirtualSm& sm = sms_[0];
    MemoryController mc(&sm.l1, &sm.l2, &stats);
    mc.set_remote_window(remote_on_ ? &remote_window_ : nullptr);
    WarpCtx ctx(&mc, &stats);
    ctx.set_sanitizer(shard);
    ctx.set_profiler(pshard);
    if (pshard != nullptr) {
      pshard->attach(&stats);
    }
    run_warps(ctx, 0, num_warps, num_warps, 0, kernel, shard, pshard);
    if (pshard != nullptr) {
      pshard->finish();
    }
  }

  template <typename Kernel>
  void run_parallel(std::string_view name, std::uint64_t num_warps, Kernel& kernel,
                    KernelStats& stats, std::vector<SanShard>* shards,
                    std::vector<ProfShard>* pshards) {
    ensure_pool();
    const auto t_count = static_cast<std::uint64_t>(threads_);
    const std::vector<std::uint64_t> bounds = partition_bounds(name, num_warps);
    const RemoteWindow* remote = remote_on_ ? &remote_window_ : nullptr;
    std::vector<KernelStats> local_stats(t_count);
    std::vector<std::exception_ptr> errors(t_count);
    pool_->run([this, &bounds, &kernel, &local_stats, &errors, shards, pshards,
                remote](int worker) {
      const auto t = static_cast<std::uint64_t>(worker);
      try {
        VirtualSm& sm = sms_[t];
        MemoryController mc(&sm.l1, &sm.l2, &local_stats[t]);
        mc.set_remote_window(remote);
        WarpCtx ctx(&mc, &local_stats[t]);
        SanShard* shard = shards != nullptr ? &(*shards)[t] : nullptr;
        ctx.set_sanitizer(shard);
        ProfShard* pshard = pshards != nullptr ? &(*pshards)[t] : nullptr;
        ctx.set_profiler(pshard);
        if (pshard != nullptr) {
          pshard->attach(&local_stats[t]);
        }
        run_warps(ctx, bounds[t], bounds[t + 1] - bounds[t], bounds.back(),
                  static_cast<std::size_t>(t), kernel, shard, pshard);
        if (pshard != nullptr) {
          pshard->finish();
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
    for (const auto& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
    // Deterministic merge in chunk order (all counters are commutative
    // sums, so the aggregate equals the serial launcher's for any access
    // pattern the private caches classify identically).
    for (const KernelStats& s : local_stats) {
      stats += s;
    }
  }

  DeviceSpec spec_;
  DeviceSpec ilv_spec_;  ///< spec_ with the interleaved issue constants (timing_spec())
  DeviceMemory memory_;
  int threads_ = 1;
  SchedConfig sched_ = default_sched();
  /// Cache models (ensure_caches): one VirtualSm per simulation thread.
  std::vector<VirtualSm> sms_;
  std::vector<std::uint64_t> warp_weights_;
  /// Launch-name-keyed weight sets (set_launch_warp_weights); linear scan —
  /// kernels install at most a couple of entries.
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> launch_weights_;
  /// Launch-name-keyed ties (set_launch_warp_ties), scanned the same way.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> launch_ties_;
  RemoteWindow remote_window_{};
  bool remote_on_ = false;
  double comm_ready_cycles_ = 0;
  bool sanitize_ = default_sancheck();
  SanitizerReport san_log_;
  bool profile_ = false;
  std::vector<ProfileReport> prof_log_;
  bool launch_log_enabled_ = false;
  std::vector<LaunchRecord> launch_log_;
  std::uint64_t batch_id_ = 0;          ///< current tag (see set_batch_id)
  std::uint64_t batch_id_counter_ = 0;  ///< alloc_batch_id source
  std::unique_ptr<SimThreadPool> pool_;  // lazily sized to threads_
  /// Pooled per-launch scratch (reset, not reallocated, between launches):
  /// one fiber scheduler per virtual SM and the sanitizer/profiler shard
  /// vectors. Sized in launch() before any worker runs.
  std::vector<std::unique_ptr<WarpScheduler>> sched_pool_;
  std::vector<SanShard> san_shards_;
  std::vector<ProfShard> prof_shards_;
};

}  // namespace spaden::sim
