#include "gpusim/multidevice.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace spaden::sim {

DeviceGroup::DeviceGroup(const DeviceSpec& spec, int num_devices) : spec_(spec) {
  SPADEN_REQUIRE(num_devices >= 1 && num_devices <= 64, "device count %d out of [1, 64]",
                 num_devices);
  devices_.reserve(static_cast<std::size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    devices_.push_back(std::make_unique<Device>(spec));
  }
}

void DeviceGroup::set_sim_threads(int threads) {
  for (auto& d : devices_) {
    d->set_sim_threads(threads);
  }
}

void DeviceGroup::set_sched(const SchedConfig& cfg) {
  for (auto& d : devices_) {
    d->set_sched(cfg);
  }
}

void DeviceGroup::set_sanitize(bool enabled) {
  for (auto& d : devices_) {
    d->set_sanitize(enabled);
  }
}

void DeviceGroup::set_profile(bool enabled) {
  for (auto& d : devices_) {
    d->set_profile(enabled);
  }
}

void DeviceGroup::set_launch_log(bool enabled) {
  for (auto& d : devices_) {
    d->set_launch_log(enabled);
  }
}

double DeviceGroup::wire_seconds(std::uint64_t halo_bytes, int peers) const {
  if (halo_bytes == 0) {
    return 0;
  }
  SPADEN_REQUIRE(spec_.link_bandwidth_gbps > 0 && spec_.links_per_device > 0,
                 "device spec '%s' has no interconnect parameters", spec_.name.c_str());
  const int links = std::min(std::max(peers, 1), spec_.links_per_device);
  return spec_.link_latency_us * 1e-6 +
         static_cast<double>(halo_bytes) /
             (spec_.link_bandwidth_gbps * 1e9 * static_cast<double>(links));
}

}  // namespace spaden::sim
