// Multi-device sharded SpMV: row-shard a CSR matrix across the members of a
// sim::DeviceGroup and run the same kernel method on every shard.
//
// Sharding contract (the determinism anchor of gpusim/multidevice):
//
//  * Rows are split into contiguous shards by nnz-balanced prefix cuts
//    aligned to `align` rows (32 by default — one simulated warp of rows, and
//    Spaden's block-row height), so a shard boundary never splits a bitmap
//    block. More devices than 32-row blocks is legal: trailing shards are
//    empty and launch nothing.
//  * Each shard is an ordinary sub-CSR with the full column width and the
//    original column indices — every kernel's prepare() works unchanged, and
//    each row's dot product runs in exactly the arithmetic order the
//    single-device kernel uses. Concatenating the per-shard y vectors is
//    therefore bit-identical to the single-device result for every
//    deterministic (row-owned) method.
//  * Every device holds a full copy of x (the halo exchange is modeled, not
//    data-moved — see gpusim/multidevice.hpp). Column ownership splits x's
//    32-byte sectors evenly across devices; the sectors a shard's column
//    indices touch outside its own range are its halo. The modeled wire time
//    for that halo gates the shard's remote loads (RemoteWindow +
//    comm_ready_cycles) so the fiber scheduler can overlap the transfer with
//    local-column compute; under the serial run-to-completion policy the
//    wire time is added analytically as TimeBreakdown::t_comm instead.
//
// The group's modeled time is the slowest device (devices run concurrently);
// counters sum across devices.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/multidevice.hpp"
#include "kernels/kernel.hpp"
#include "matrix/csr.hpp"

namespace spaden::kern {

/// One device's contiguous row range.
struct Shard {
  mat::Index row_begin = 0;
  mat::Index row_end = 0;  ///< exclusive
  std::uint64_t nnz = 0;

  [[nodiscard]] mat::Index rows() const { return row_end - row_begin; }
  [[nodiscard]] bool empty() const { return row_begin == row_end; }
};

/// nnz-balanced contiguous row shards, boundaries aligned to `align` rows.
/// Shard d ends at the first aligned boundary where the running nonzero
/// count reaches (d+1)/n of the total; the last shard absorbs the tail.
/// Always returns exactly `num_devices` shards; shards may be empty.
[[nodiscard]] std::vector<Shard> plan_shards(const mat::Csr& a, int num_devices,
                                             mat::Index align = 32);

/// Sub-CSR of rows [row_begin, row_end): full column width, original column
/// indices, values in original order.
[[nodiscard]] mat::Csr extract_rows(const mat::Csr& a, mat::Index row_begin,
                                    mat::Index row_end);

/// Static per-device plan: the row shard plus its modeled halo — the
/// distinct x sectors the shard reads outside its owned column range, and
/// how many distinct peer devices own them.
struct ShardInfo {
  Shard shard;
  std::uint64_t halo_bytes = 0;  ///< distinct remote x sectors * sector_bytes
  int peers = 0;                 ///< distinct owners of those sectors
  double wire_seconds = 0;       ///< modeled halo transfer (DeviceGroup::wire_seconds)
};

/// Result of one group launch.
struct GroupResult {
  sim::KernelStats stats;   ///< summed over devices
  sim::TimeBreakdown time;  ///< breakdown of the slowest (critical-path) device
  double modeled_seconds = 0;  ///< max over per-device totals
  std::vector<sim::LaunchResult> launches;  ///< one per device (empty shards too)

  [[nodiscard]] double gflops(std::uint64_t nnz) const {
    return 2.0 * static_cast<double>(nnz) / modeled_seconds / 1e9;
  }
};

/// Runs one SpMV method row-sharded across a DeviceGroup; a group of one
/// device is the single-device path. Construct, prepare() once, then per
/// multiply upload() (unless x_current()), launch() and download(): three
/// steps, so a caller can time or trace each one.
class ShardedSpmv {
 public:
  /// The group must outlive the runner.
  ShardedSpmv(sim::DeviceGroup& group, Method method);
  ~ShardedSpmv();
  ShardedSpmv(ShardedSpmv&&) noexcept;
  ShardedSpmv& operator=(ShardedSpmv&&) noexcept;

  /// Plan shards, build each sub-CSR, prepare one kernel per non-empty
  /// shard on its device, and compute each shard's halo. Device 0 always
  /// gets a kernel, so a matrix without rows still launches once.
  void prepare(const mat::Csr& a);

  /// Verify every shard kernel against the fp64 host reference of its
  /// sub-matrix (throws spaden::Error on mismatch, like verify_kernel).
  /// Returns the worst shard's result.
  VerifyResult verify();

  /// spaden-verify sweep over every shard's uploaded format: the first
  /// failing shard's report, else the first non-empty shard's (all-ok).
  [[nodiscard]] san::FormatReport check_format() const;

  /// The upload-skip rule: true when `xs` is one x, `x_generation` is
  /// nonzero and matches the last upload's tag, AND x equals the cached
  /// host copy. The tag alone is no proof (two servers on one registry both
  /// number requests from 0), and the O(ncols) compare costs less than the
  /// upload it saves.
  [[nodiscard]] bool x_current(const std::vector<const std::vector<float>*>& xs,
                               std::uint64_t x_generation) const;

  /// Uploads the k = xs.size() right-hand sides to every device that
  /// launches. k = 1 uploads x unpadded and caches it under `x_generation`
  /// (every device holds all of x); k > 1 uploads them in the layout the
  /// method's kernel packs (SpmvKernel::upload_batch) for the next launch
  /// only, and needs a group of one device (RemoteWindow covers a single
  /// column).
  void upload(const std::vector<const std::vector<float>*>& xs,
              std::uint64_t x_generation = 0);

  /// Launches the uploaded columns on every device: k = 1 run() on the
  /// cached x, k > 1 run_multi() on the packed batch. Each device's sanitizer,
  /// profile and launch logs are cleared first, so afterwards they hold
  /// this launch's records only.
  GroupResult launch(mat::Index k);

  /// The last launch's k outputs, each the concatenation of the per-shard
  /// ys (nrows entries). Frees the launch's device buffers.
  void download(std::vector<std::vector<float>>& ys);

  [[nodiscard]] Method method() const { return method_; }
  [[nodiscard]] const std::vector<ShardInfo>& shards() const { return shards_; }
  /// Summed device footprint across shards.
  [[nodiscard]] Footprint footprint() const;
  [[nodiscard]] mat::Index nrows() const { return nrows_; }
  [[nodiscard]] mat::Index ncols() const { return ncols_; }
  [[nodiscard]] std::uint64_t nnz() const { return nnz_; }

 private:
  sim::DeviceGroup* group_;
  Method method_;
  mat::Index nrows_ = 0;
  mat::Index ncols_ = 0;
  std::uint64_t nnz_ = 0;
  std::vector<ShardInfo> shards_;
  std::vector<mat::Csr> sub_;  ///< per-shard sub-CSR (kept for verify)
  std::vector<std::unique_ptr<SpmvKernel>> kernels_;  ///< null for empty shards but 0
  std::vector<sim::Buffer<float>> x_;  ///< per-device cached x (k = 1)
  std::uint64_t x_generation_ = 0;     ///< tag of x_ (0 = none)
  XBatch batch_;                       ///< device 0's packed batch (k > 1)
  std::vector<sim::Buffer<float>> y_;  ///< per-device outputs of the last launch
  mat::Index k_ = 0;                   ///< columns of the last launch
};

}  // namespace spaden::kern
