// DeviceGroup: N simulated GPUs built from one DeviceSpec, joined by the
// spec's modeled interconnect (link_latency_us / link_bandwidth_gbps /
// links_per_device — see apply_link_preset).
//
// The group itself is purely structural: it owns the Devices and knows the
// wire model. Sharding policy — which rows land on which device, which x
// sectors are halo, how the per-device results recombine — lives one layer
// up in kernels/sharded (the shard planner needs the matrix, which gpusim
// deliberately knows nothing about). Each member Device keeps its own
// memory, caches, scheduler pool and logs, so a single-device launch on
// member 0 of a 1-wide group is bit-identical to a plain Device.
//
// The halo exchange is modeled, not data-moved: every device holds a full
// copy of x (functional correctness is trivially preserved — the demuxed y
// is bit-identical to single-device), while the time model charges each
// device the wire cost of the remote x sectors its shard actually touches:
//   wire_seconds = link_latency_us * 1e-6
//                + halo_bytes / (link_bandwidth_gbps * 1e9 * active_links)
// with active_links = min(peer count, links_per_device). The sharded runner
// converts that to SM cycles (Device::set_comm_ready_cycles) so the fiber
// scheduler can overlap it with compute, or adds it analytically under the
// serial policy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"

namespace spaden::sim {

class DeviceGroup {
 public:
  /// Instantiate `num_devices` Devices from one spec. Each member models a
  /// full GPU of that spec; the interconnect fields of the same spec define
  /// the links between them.
  DeviceGroup(const DeviceSpec& spec, int num_devices);

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] Device& device(int i) { return *devices_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const Device& device(int i) const {
    return *devices_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  // Configuration fan-out: same knobs as Device, applied to every member so
  // the group behaves like N identically-configured GPUs.
  void set_sim_threads(int threads);
  void set_sched(const SchedConfig& cfg);
  void set_sanitize(bool enabled);
  void set_profile(bool enabled);
  void set_launch_log(bool enabled);

  /// Modeled one-shot transfer time for one device pulling `halo_bytes` of
  /// remote x from `peers` distinct owners: the link latency plus the bytes
  /// over the aggregate bandwidth of the links it can drive concurrently
  /// (min(peers, links_per_device)). Zero bytes = zero cost — a shard with
  /// no halo pays nothing, so N=1 groups add no time at all.
  [[nodiscard]] double wire_seconds(std::uint64_t halo_bytes, int peers) const;

  /// wire_seconds converted to SM clock cycles (the unit the fiber
  /// scheduler's comm gate runs in).
  [[nodiscard]] double wire_cycles(std::uint64_t halo_bytes, int peers) const {
    return wire_seconds(halo_bytes, peers) * spec_.clock_ghz * 1e9;
  }

 private:
  DeviceSpec spec_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace spaden::sim
