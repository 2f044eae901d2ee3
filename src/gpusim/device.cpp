#include "gpusim/device.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace spaden::sim {

int default_sim_threads() {
  if (const char* env = std::getenv("SPADEN_SIM_THREADS")) {
    const std::optional<long> requested = parse_long(env);
    SPADEN_REQUIRE(requested && *requested >= 1 && *requested <= 256,
                   "SPADEN_SIM_THREADS=%s is not an integer in [1, 256]", env);
    return static_cast<int>(*requested);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Device::Device(DeviceSpec spec)
    : spec_(std::move(spec)), ilv_spec_(spec_), threads_(default_sim_threads()) {
  check_env_names();
  ilv_spec_.lsu_wavefronts_per_cycle = spec_.lsu_wavefronts_per_cycle_ilv;
  ilv_spec_.cuda_issue_efficiency = spec_.cuda_issue_efficiency_ilv;
}

void Device::set_sim_threads(int threads) {
  SPADEN_REQUIRE(threads >= 1 && threads <= 256, "sim thread count %d out of [1, 256]",
                 threads);
  threads_ = threads;  // caches and pool follow at the next launch
}

bool default_sancheck() { return env_flag("SPADEN_SANCHECK"); }

void Device::ensure_caches() {
  const auto count = static_cast<std::size_t>(threads_);
  if (sms_.size() == count) {
    return;
  }
  sms_.clear();
  sms_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    sms_.emplace_back(spec_, threads_);
  }
}

std::size_t Device::cache_host_bytes() const {
  std::size_t total = 0;
  for (const VirtualSm& sm : sms_) {
    total += sm.l1.host_bytes() + sm.l2.host_bytes();
  }
  return total;
}

std::vector<std::uint64_t> Device::partition_bounds(std::string_view name,
                                                    std::uint64_t num_warps) const {
  std::vector<std::uint64_t> bounds = weighted_bounds(name, num_warps);
  for (const auto& [key, tied] : launch_ties_) {
    if (key != name || tied.size() != num_warps) {
      continue;
    }
    // Move each cut forward past the warps tied to the one before them;
    // the cuts stay ascending because each starts no earlier than the last.
    for (std::size_t t = 1; t + 1 < bounds.size(); ++t) {
      std::uint64_t cut = std::max(bounds[t], bounds[t - 1]);
      while (cut < num_warps && tied[cut] != 0) {
        ++cut;
      }
      bounds[t] = cut;
    }
  }
  return bounds;
}

std::vector<std::uint64_t> Device::weighted_bounds(std::string_view name,
                                                   std::uint64_t num_warps) const {
  const auto t_count = static_cast<std::uint64_t>(threads_);
  std::vector<std::uint64_t> bounds(t_count + 1, num_warps);
  bounds[0] = 0;
  // Weight source precedence: launch-keyed (exact name AND size match) over
  // the global vector (size match), so multi-launch kernels whose secondary
  // launch happens to share the primary's warp count still get the right
  // weights instead of a stale set.
  const std::vector<std::uint64_t>* weights = nullptr;
  std::uint64_t total_weight = 0;
  const std::vector<std::uint64_t>& keyed = launch_warp_weights(name);
  if (keyed.size() == num_warps) {
    weights = &keyed;
  } else if (warp_weights_.size() == num_warps) {
    weights = &warp_weights_;
  }
  if (weights != nullptr) {
    for (const std::uint64_t weight : *weights) {
      total_weight += weight;
    }
  }
  if (total_weight == 0) {
    // Contiguous equal-count chunks (also the fallback when no usable
    // weights are set).
    const std::uint64_t chunk = num_warps == 0 ? 0 : (num_warps + t_count - 1) / t_count;
    for (std::uint64_t t = 1; t < t_count; ++t) {
      bounds[t] = std::min(t * chunk, num_warps);
    }
    return bounds;
  }
  // Contiguous chunks cut where the weight prefix sum crosses each SM's
  // equal share — ascending contiguous warp ranges, so the profiler's and
  // sanitizer's in-order shard merge invariant is preserved.
  std::uint64_t warp = 0;
  std::uint64_t prefix = 0;
  for (std::uint64_t t = 1; t < t_count; ++t) {
    const auto target = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(total_weight) * t) / t_count);
    while (warp < num_warps && prefix + (*weights)[warp] / 2 < target) {
      prefix += (*weights)[warp];
      ++warp;
    }
    bounds[t] = warp;
  }
  return bounds;
}

void Device::report_findings(const SanitizerReport& report) {
  std::fputs(report.summary().c_str(), stderr);
}

void Device::ensure_pool() {
  if (pool_ == nullptr || pool_->workers() != threads_) {
    pool_ = std::make_unique<SimThreadPool>(threads_);
  }
}

}  // namespace spaden::sim
