#include "gpusim/sched/scheduler.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "gpusim/warp.hpp"

namespace spaden::sim {

WarpScheduler::WarpScheduler(int window, const DeviceSpec& spec, double comm_ready_cycles) {
  reconfigure(window, spec, comm_ready_cycles);
}

void WarpScheduler::reconfigure(int window, const DeviceSpec& spec, double comm_ready_cycles) {
  SPADEN_REQUIRE(window >= 1, "resident window %d must be >= 1", window);
  SPADEN_REQUIRE(comm_ready_cycles >= 0, "comm_ready_cycles %g must be >= 0",
                 comm_ready_cycles);
  window_ = window;
  spec_ = &spec;
  comm_ready_ = comm_ready_cycles;
}

void WarpScheduler::fiber_entry(void* raw) {
  Slot* slot = static_cast<Slot*>(raw);
  WarpScheduler* sched = slot->owner;
  try {
    sched->body_(sched->kernel_, *sched->ctx_, slot->warp);
  } catch (...) {
    // Stash the first failure; the run loop stops scheduling and rethrows.
    if (!sched->error_) {
      sched->error_ = std::current_exception();
    }
  }
}

void WarpScheduler::arm(Slot& slot, std::uint64_t warp) {
  slot.warp = warp;
  slot.ready_at = 0;  // a fresh warp can issue immediately
  slot.live = true;
  slot.fresh = true;
  slot.draining = false;
  slot.inflight_n = 0;
  slot.fiber.start(&WarpScheduler::fiber_entry, &slot);
}

void WarpScheduler::retire(std::size_t s) {
  Slot& slot = *slots_[s];
  slot.draining = false;
  if (next_idx_ < count_) {
    arm(slot, start_ + next_idx_++);  // rotate the next warp in
  } else {
    slot.live = false;
    if (s < 64) {
      live_mask_ &= ~(std::uint64_t{1} << s);
    }
    --live_count_;
  }
}

double WarpScheduler::issue_cycles(const KernelStats& d) const {
  // Cycles this SM's pipes were busy issuing the interval's work; the pipes
  // overlap, so the busiest one sets the pace (same structure as the
  // launch-level roofline, scaled to one SM).
  const DeviceSpec& s = *spec_;
  const double lsu = static_cast<double>(d.wavefronts) / s.lsu_wavefronts_per_cycle;
  const double cuda = (static_cast<double>(d.cuda_ops) +
                       s.atomic_weight * static_cast<double>(d.atomic_lane_ops)) /
                      (static_cast<double>(s.cuda_cores_per_sm) * s.cuda_issue_efficiency);
  const double tc = tc_flops_per_cycle_ > 0 ? d.tc_flops() / tc_flops_per_cycle_ : 0.0;
  return std::max({lsu, cuda, tc});
}

double WarpScheduler::op_latency() {
  // Classify the memory op the warp just charged from the counter movement
  // since the previous op (of any warp on this SM — marks are refreshed at
  // every resume, and ops never interleave mid-instruction).
  const std::uint64_t dram = stats_->dram_bytes;
  const std::uint64_t sectors = stats_->sectors;
  double latency;
  if (dram != op_dram_mark_) {
    latency = static_cast<double>(spec_->dram_latency_cycles);
  } else if (sectors != op_sector_mark_) {
    latency = static_cast<double>(spec_->l2_latency_cycles);
  } else {
    latency = static_cast<double>(spec_->l1_latency_cycles);
  }
  op_dram_mark_ = dram;
  op_sector_mark_ = sectors;
  if (comm_ready_ > 0) {
    const std::uint64_t remote = stats_->remote_sectors;
    op_was_remote_ = remote != op_remote_mark_;
    op_remote_mark_ = remote;
  }
  return latency;
}

std::size_t WarpScheduler::pick() {
  const std::size_t n = slots_.size();
  for (;;) {
    if (n <= 64) {
      // Loose-rr ready-mask: iterate only the live slots (cursor first,
      // then the wrap-around word) and check readiness lazily against the
      // clock — not-ready warps are skipped without scanning the window.
      // Selection order matches the plain scan exactly.
      const std::uint64_t all = ~std::uint64_t{0};
      const std::uint64_t high = live_mask_ & (all << rr_next_);
      const std::uint64_t low = live_mask_ & ~(all << rr_next_);
      for (std::uint64_t m : {high, low}) {
        while (m != 0) {
          const auto s = static_cast<std::size_t>(std::countr_zero(m));
          if (slots_[s]->ready_at <= now_) {
            rr_next_ = (s + 1) % n;
            return s;
          }
          m &= m - 1;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = (rr_next_ + i) % n;
        if (slots_[s]->live && slots_[s]->ready_at <= now_) {
          rr_next_ = (s + 1) % n;
          return s;
        }
      }
    }
    // Nothing ready. Without the latency model that means no live warp at
    // all — a caller bug. With it, every resident warp is waiting on memory:
    // jump the clock to the earliest completion and remember the gap as
    // exposed stall cycles (charged once a warp's ranges are reopened).
    SPADEN_ASSERT(timing_, "WarpScheduler::pick with no live warp");
    double min_ready = 0;
    bool any = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (slots_[s]->live && (!any || slots_[s]->ready_at < min_ready)) {
        min_ready = slots_[s]->ready_at;
        any = true;
      }
    }
    SPADEN_ASSERT(any && min_ready > now_, "stall advance with no pending completion");
    // Split the jump between interconnect wait and memory stall: cycles
    // spent before the halo transfer lands are wire time the compute could
    // not cover (t_comm); everything after is an ordinary exposed stall.
    // With comm_ready_ = 0 the comm share is empty and the accounting is
    // exactly the single-device model.
    const double comm_share =
        std::clamp(comm_ready_ - now_, 0.0, min_ready - now_);
    pending_comm_ += comm_share;
    pending_stall_ += (min_ready - now_) - comm_share;
    now_ = min_ready;
  }
}

void WarpScheduler::yield_point() {
  if (live_count_ <= 1) {
    return;  // no other resident warp to switch to
  }
  Slot& slot = *slots_[current_];
  // Scoreboard: the op just charged occupies an in-flight slot until its
  // completion cycle. The warp only suspends when every slot holds a
  // genuinely outstanding op — that is the instruction-grained refinement
  // that replaces one fiber switch per op with one per filled scoreboard.
  const double latency = op_latency();
  // A remote (halo) op cannot complete before the modeled transfer lands:
  // its completion is clamped to comm_ready_. Local ops are untouched, so
  // warps on local columns keep issuing while halo warps fill their
  // scoreboards and suspend — the comm/compute overlap.
  const bool remote = op_was_remote_;
  op_was_remote_ = false;
  int n = slot.inflight_n;
  for (int i = 0; i < n;) {
    if (slot.inflight[static_cast<std::size_t>(i)] <= now_) {
      slot.inflight[static_cast<std::size_t>(i)] =
          slot.inflight[static_cast<std::size_t>(--n)];  // completed: free the slot
    } else {
      ++i;
    }
  }
  if (n < scoreboard_slots_) {
    double done = now_ + latency;
    if (remote && done < comm_ready_) {
      done = comm_ready_;
    }
    slot.inflight[static_cast<std::size_t>(n)] = done;
    slot.inflight_n = n + 1;
    return;  // a slot was free: the op issues without suspending the warp
  }
  // Scoreboard full: the warp waits for the earliest outstanding completion,
  // then this op issues in the freed slot.
  int min_i = 0;
  for (int i = 1; i < n; ++i) {
    if (slot.inflight[static_cast<std::size_t>(i)] <
        slot.inflight[static_cast<std::size_t>(min_i)]) {
      min_i = i;
    }
  }
  const double t0 = slot.inflight[static_cast<std::size_t>(min_i)];
  double done = t0 + latency;
  if (remote && done < comm_ready_) {
    done = comm_ready_;
  }
  slot.inflight[static_cast<std::size_t>(min_i)] = done;
  slot.inflight_n = n;
  slot.ready_at = t0;
  slot.fiber.yield();
}

void WarpScheduler::run(WarpCtx& ctx, std::uint64_t start, std::uint64_t count, void* kernel,
                        KernelBody body) {
  if (count == 0) {
    return;
  }
  ctx_ = &ctx;
  kernel_ = kernel;
  body_ = body;
  stats_ = &ctx.stats();
  san_ = ctx.sanitizer();
  prof_ = ctx.profiler();
  start_ = start;
  count_ = count;
  next_idx_ = 0;
  const std::size_t window = static_cast<std::size_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(window_), count));
  // Resize-preserving slot pool: surviving slots keep their fiber stacks, so
  // repeat launches (iterations, multi-pass kernels) allocate nothing.
  while (slots_.size() > window) {
    slots_.pop_back();
  }
  slots_.reserve(window);
  while (slots_.size() < window) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->owner = this;
  }
  for (auto& slot : slots_) {
    arm(*slot, start_ + next_idx_++);
  }
  live_count_ = window;
  rr_next_ = 0;
  live_mask_ = window >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << window) - 1;
  // The latency model needs >1 resident warp (a lone warp has nothing to
  // cover its latency with — and the rr:1 window must stay bit-identical to
  // the serial launcher).
  timing_ = window > 1;
  now_ = 0;
  pending_stall_ = 0;
  pending_comm_ = 0;
  op_dram_mark_ = stats_->dram_bytes;
  op_sector_mark_ = stats_->sectors;
  op_remote_mark_ = stats_->remote_sectors;
  op_was_remote_ = false;
  if (timing_) {
    tc_flops_per_cycle_ = spec_->tc_half_tflops * 1e12 /
                          (static_cast<double>(spec_->sm_count) * spec_->clock_ghz * 1e9);
    scoreboard_slots_ = std::clamp(static_cast<int>(spec_->mem_parallelism_ilv), 1,
                                   kMaxScoreboard);
  }
  ctx.set_scheduler(this);
  while (live_count_ > 0) {
    const std::size_t s = pick();
    Slot& slot = *slots_[s];
    if (slot.draining) {
      // The warp body already returned; the clock has now passed its last
      // in-flight completion (pick only returns ready slots), so the slot
      // can finally be freed. Stalls the drain exposed are charged here —
      // the warp has no open ranges left to attribute them to.
      const auto charge = static_cast<std::uint64_t>(pending_stall_);
      if (charge > 0) {
        stats_->exposed_stall_cycles += charge;
        pending_stall_ -= static_cast<double>(charge);
      }
      const auto comm = static_cast<std::uint64_t>(pending_comm_);
      if (comm > 0) {
        stats_->comm_stall_cycles += comm;
        pending_comm_ -= static_cast<double>(comm);
      }
      retire(s);
      continue;
    }
    if (slot.fresh) {
      if (san_ != nullptr) {
        san_->begin_warp(slot.warp);
      }
      if (prof_ != nullptr) {
        prof_->begin_warp(slot.warp);
      }
      slot.fresh = false;
    } else {
      if (san_ != nullptr) {
        san_->restore_warp(slot.san_state);
      }
      if (prof_ != nullptr) {
        prof_->resume_warp(slot.prof_state);
      }
    }
    current_ = s;
    if (timing_) {
      // Charge accumulated stall cycles now, after the incoming warp's
      // profiler ranges were reopened: the exposure ends where this warp
      // resumes, and the charge lands inside the range it suspended in
      // (keeping range sums exact). Fractions below one cycle stay in
      // pending_stall_ for the next gap.
      const auto charge = static_cast<std::uint64_t>(pending_stall_);
      if (charge > 0) {
        stats_->exposed_stall_cycles += charge;
        pending_stall_ -= static_cast<double>(charge);
      }
      const auto comm = static_cast<std::uint64_t>(pending_comm_);
      if (comm > 0) {
        stats_->comm_stall_cycles += comm;
        pending_comm_ -= static_cast<double>(comm);
      }
      interval_snap_ = *stats_;
    }
    const bool suspended = slot.fiber.resume();
    if (timing_) {
      now_ += issue_cycles(*stats_ - interval_snap_);
    }
    if (suspended) {
      if (san_ != nullptr) {
        slot.san_state = san_->save_warp();
      }
      if (prof_ != nullptr) {
        prof_->suspend_warp(slot.prof_state);
      }
    } else {
      if (prof_ != nullptr) {
        prof_->end_warp();
      }
      if (error_) {
        break;  // abandon the remaining fibers, rethrow below
      }
      if (timing_ && slot.inflight_n > 0) {
        double last = 0;
        for (int i = 0; i < slot.inflight_n; ++i) {
          last = std::max(last, slot.inflight[static_cast<std::size_t>(i)]);
        }
        if (last > now_) {
          // Outstanding memory ops survive the warp body: hold the slot
          // until the scoreboard drains (see Slot::draining).
          slot.draining = true;
          slot.ready_at = last;
          continue;
        }
      }
      retire(s);
    }
  }
  ctx.set_scheduler(nullptr);
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    // Suspended fibers are dropped without unwinding their stacks; after a
    // kernel error the launch's partial state is discarded anyway.
    std::rethrow_exception(error);
  }
}

void sched_yield_point(WarpScheduler& sched) { sched.yield_point(); }

}  // namespace spaden::sim
