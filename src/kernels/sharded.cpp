#include "kernels/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace spaden::kern {

std::vector<Shard> plan_shards(const mat::Csr& a, int num_devices, mat::Index align) {
  SPADEN_REQUIRE(num_devices >= 1, "shard plan needs >= 1 device, got %d", num_devices);
  SPADEN_REQUIRE(align >= 1, "shard alignment must be >= 1, got %u", align);
  const auto n = static_cast<std::uint64_t>(num_devices);
  const auto total = static_cast<std::uint64_t>(a.nnz());
  std::vector<Shard> shards(static_cast<std::size_t>(num_devices));
  mat::Index row = 0;
  std::uint64_t done = 0;
  for (std::uint64_t d = 0; d < n; ++d) {
    Shard& s = shards[static_cast<std::size_t>(d)];
    s.row_begin = row;
    if (d + 1 == n) {
      row = a.nrows;  // the last shard absorbs the tail rows
    } else {
      const std::uint64_t target = total * (d + 1) / n;
      while (row < a.nrows && done < target) {
        const mat::Index step = std::min<mat::Index>(align, a.nrows - row);
        done += a.row_ptr[row + step] - a.row_ptr[row];
        row += step;
      }
    }
    s.row_end = row;
    s.nnz = a.row_ptr[s.row_end] - a.row_ptr[s.row_begin];
  }
  return shards;
}

mat::Csr extract_rows(const mat::Csr& a, mat::Index row_begin, mat::Index row_end) {
  SPADEN_REQUIRE(row_begin <= row_end && row_end <= a.nrows,
                 "row range [%u, %u) out of bounds for %u rows", row_begin, row_end,
                 a.nrows);
  mat::Csr s;
  s.nrows = row_end - row_begin;
  s.ncols = a.ncols;
  s.row_ptr.resize(static_cast<std::size_t>(s.nrows) + 1);
  const mat::Index base = a.row_ptr[row_begin];
  for (mat::Index r = 0; r <= s.nrows; ++r) {
    s.row_ptr[r] = a.row_ptr[row_begin + r] - base;
  }
  const auto lo = static_cast<std::ptrdiff_t>(base);
  const auto hi = static_cast<std::ptrdiff_t>(a.row_ptr[row_end]);
  s.col_idx.assign(a.col_idx.begin() + lo, a.col_idx.begin() + hi);
  s.val.assign(a.val.begin() + lo, a.val.begin() + hi);
  return s;
}

namespace {

/// x-vector sector ownership: with S sectors split across n devices, device
/// d owns sector groups [S*d/n, S*(d+1)/n). Sector group g = column /
/// (sector_bytes/4); the x buffer is 256-byte aligned, so group boundaries
/// coincide with device sector boundaries.
struct OwnRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

std::uint64_t x_sector_count(mat::Index ncols, std::uint32_t sector_bytes) {
  const std::uint64_t fps = sector_bytes / sizeof(float);
  return (static_cast<std::uint64_t>(ncols) + fps - 1) / fps;
}

OwnRange own_sectors(std::uint64_t sectors, int device, int num_devices) {
  const auto n = static_cast<std::uint64_t>(num_devices);
  const auto d = static_cast<std::uint64_t>(device);
  return OwnRange{sectors * d / n, sectors * (d + 1) / n};
}

}  // namespace

ShardedSpmv::ShardedSpmv(sim::DeviceGroup& group, Method method)
    : group_(&group), method_(method) {}

ShardedSpmv::~ShardedSpmv() = default;
ShardedSpmv::ShardedSpmv(ShardedSpmv&&) noexcept = default;
ShardedSpmv& ShardedSpmv::operator=(ShardedSpmv&&) noexcept = default;

void ShardedSpmv::prepare(const mat::Csr& a) {
  const int n = group_->size();
  nrows_ = a.nrows;
  ncols_ = a.ncols;
  nnz_ = a.nnz();
  const std::vector<Shard> plan = plan_shards(a, n);
  // Segment counts for every shard, sliced from the whole matrix's: shards
  // are cut at 32-row boundaries, so each starts on a unit and gets exactly
  // its units' segments of the single-device plan, and y stays
  // bit-identical across device counts. A single shard is the whole matrix
  // and derives the same counts itself.
  std::vector<mat::Index> counts;
  mat::Index unit_rows = 0;
  if (n > 1) {
    const std::unique_ptr<SpmvKernel> whole = make_kernel(method_);
    counts = whole->derive_segment_counts(a);
    unit_rows = whole->rows_per_segment_unit();
  }
  const auto shard_counts = [&](const Shard& s) -> std::optional<std::span<const mat::Index>> {
    if (unit_rows == 0) {
      return std::nullopt;
    }
    assert(s.row_begin % unit_rows == 0);
    const mat::Index first = s.row_begin / unit_rows;
    const mat::Index last = (s.row_end + unit_rows - 1) / unit_rows;
    return std::span<const mat::Index>(counts).subspan(first, last - first);
  };
  shards_.assign(static_cast<std::size_t>(n), ShardInfo{});
  sub_.clear();
  kernels_.clear();
  sub_.resize(static_cast<std::size_t>(n));
  kernels_.resize(static_cast<std::size_t>(n));
  x_.clear();
  x_.resize(static_cast<std::size_t>(n));  // Buffer is move-only
  x_generation_ = 0;
  y_.clear();
  y_.resize(static_cast<std::size_t>(n));

  const std::uint32_t sector_bytes = group_->spec().sector_bytes;
  const std::uint64_t fps = sector_bytes / sizeof(float);
  const std::uint64_t sectors = x_sector_count(ncols_, sector_bytes);
  std::vector<std::uint8_t> remote_mark(sectors, 0);
  std::vector<std::uint8_t> owner_seen(static_cast<std::size_t>(n), 0);

  for (int d = 0; d < n; ++d) {
    const auto i = static_cast<std::size_t>(d);
    ShardInfo& info = shards_[i];
    info.shard = plan[i];
    sub_[i] = extract_rows(a, info.shard.row_begin, info.shard.row_end);
    if (!info.shard.empty() || d == 0) {
      kernels_[i] = make_kernel(method_);
      kernels_[i]->prepare(group_->device(d), sub_[i], shard_counts(info.shard));
    }
    if (n <= 1) {
      continue;  // one device owns all of x — no halo by construction
    }
    // Halo scan: distinct x sectors this shard reads outside its own range.
    const OwnRange own = own_sectors(sectors, d, n);
    std::fill(remote_mark.begin(), remote_mark.end(), std::uint8_t{0});
    for (const mat::Index c : sub_[i].col_idx) {
      const std::uint64_t g = static_cast<std::uint64_t>(c) / fps;
      if (g < own.lo || g >= own.hi) {
        remote_mark[g] = 1;
      }
    }
    std::fill(owner_seen.begin(), owner_seen.end(), std::uint8_t{0});
    std::uint64_t halo_sectors = 0;
    int owner = 0;
    for (std::uint64_t g = 0; g < sectors; ++g) {
      while (g >= own_sectors(sectors, owner, n).hi) {
        ++owner;
      }
      if (remote_mark[g] != 0) {
        ++halo_sectors;
        if (owner_seen[static_cast<std::size_t>(owner)] == 0) {
          owner_seen[static_cast<std::size_t>(owner)] = 1;
          ++info.peers;
        }
      }
    }
    info.halo_bytes = halo_sectors * sector_bytes;
    info.wire_seconds = group_->wire_seconds(info.halo_bytes, info.peers);
  }
}

VerifyResult ShardedSpmv::verify() {
  VerifyResult worst;
  worst.tolerance = 1.0;  // empty group: trivially ok
  for (int d = 0; d < group_->size(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    if (kernels_[i] == nullptr) {
      continue;
    }
    const VerifyResult r = verify_kernel(*kernels_[i], group_->device(d), sub_[i]);
    if (r.max_abs_err * worst.tolerance >= worst.max_abs_err * r.tolerance) {
      worst = r;
    }
  }
  return worst;
}

san::FormatReport ShardedSpmv::check_format() const {
  san::FormatReport first;
  bool have = false;
  for (const auto& kernel : kernels_) {
    if (kernel == nullptr) {
      continue;
    }
    san::FormatReport r = kernel->check_format();
    if (!r.ok()) {
      return r;
    }
    if (!have) {
      first = std::move(r);
      have = true;
    }
  }
  return first;
}

bool ShardedSpmv::x_current(const std::vector<const std::vector<float>*>& xs,
                            std::uint64_t x_generation) const {
  // Device 0 always launches and every launching device holds the same x,
  // so its host copy speaks for the group.
  return xs.size() == 1 && x_generation != 0 && x_generation == x_generation_ &&
         x_[0].host() == *xs[0];
}

void ShardedSpmv::upload(const std::vector<const std::vector<float>*>& xs,
                         std::uint64_t x_generation) {
  const auto k = static_cast<mat::Index>(xs.size());
  if (k > 1) {
    assert(group_->size() == 1);
    batch_ = kernels_[0]->upload_batch(group_->device(0), xs);
    return;
  }
  for (int d = 0; d < group_->size(); ++d) {
    if (kernels_[static_cast<std::size_t>(d)] != nullptr) {
      x_[static_cast<std::size_t>(d)] = group_->device(d).memory().upload(*xs[0], "x");
    }
  }
  x_generation_ = x_generation;
}

GroupResult ShardedSpmv::launch(mat::Index k) {
  const int n = group_->size();
  assert(k == 1 || n == 1);
  k_ = k;
  GroupResult result;
  result.launches.reserve(static_cast<std::size_t>(n));
  const std::uint32_t sector_bytes = group_->spec().sector_bytes;
  const std::uint64_t sectors = x_sector_count(ncols_, sector_bytes);
  int critical = 0;

  for (int d = 0; d < n; ++d) {
    const auto i = static_cast<std::size_t>(d);
    sim::Device& dev = group_->device(d);
    dev.clear_sanitizer_log();
    dev.clear_profile_log();
    dev.clear_launch_log();
    if (kernels_[i] == nullptr) {
      result.launches.emplace_back();  // empty shard: nothing launched
      continue;
    }
    const mat::Index rows = shards_[i].shard.rows();
    if (k > 1) {
      y_[i] = dev.memory().alloc<float>(k * column_stride(rows), "batch.y");
      result.launches.push_back(kernels_[i]->run_multi(dev, batch_, y_[i].span()));
    } else {
      y_[i] = dev.memory().alloc<float>(rows, "y");
      // One logical multiply = one batch id, so multi-launch kernels group
      // under a single span in the stitched trace.
      dev.set_batch_id(dev.alloc_batch_id());
      if (n > 1) {
        // Window the x buffer so the controller classifies remote sectors,
        // and gate those loads behind the modeled halo transfer.
        const std::uint64_t addr = x_[i].device_addr();
        SPADEN_REQUIRE(addr % sector_bytes == 0, "x buffer not sector aligned");
        const OwnRange own = own_sectors(sectors, d, n);
        sim::RemoteWindow window;
        window.lo = addr / sector_bytes;
        window.hi = window.lo + sectors;
        window.own_lo = window.lo + own.lo;
        window.own_hi = window.lo + own.hi;
        dev.set_remote_window(window);
        dev.set_comm_ready_cycles(group_->wire_cycles(shards_[i].halo_bytes,
                                                      shards_[i].peers));
      }
      sim::LaunchResult launch = kernels_[i]->run(dev, x_[i].cspan(), y_[i].span());
      if (n > 1) {
        dev.clear_remote_window();
        if (dev.sched().policy == sim::SchedPolicy::Serial &&
            shards_[i].wire_seconds > 0) {
          // The run-to-completion launcher has no scheduler to overlap the
          // halo fetch with compute, so the wire time is purely additive.
          launch.time.t_comm += shards_[i].wire_seconds;
          launch.time.total += shards_[i].wire_seconds;
        }
      }
      result.launches.push_back(std::move(launch));
    }
    const sim::LaunchResult& launch = result.launches.back();
    result.stats += launch.stats;
    if (launch.time.total > result.launches[static_cast<std::size_t>(critical)].time.total) {
      critical = d;
    }
  }
  result.time = result.launches[static_cast<std::size_t>(critical)].time;
  result.modeled_seconds = result.time.total;
  return result;
}

void ShardedSpmv::download(std::vector<std::vector<float>>& ys) {
  ys.resize(k_);
  for (mat::Index c = 0; c < k_; ++c) {
    ys[c].resize(nrows_);
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      if (kernels_[i] == nullptr) {
        continue;
      }
      const std::span<const float> y = stack_column(y_[i].host(), shards_[i].shard.rows(), c);
      std::copy(y.begin(), y.end(),
                ys[c].begin() + static_cast<std::ptrdiff_t>(shards_[i].shard.row_begin));
    }
  }
  for (sim::Buffer<float>& y : y_) {
    y = sim::Buffer<float>{};
  }
  batch_ = XBatch{};
}

Footprint ShardedSpmv::footprint() const {
  Footprint total;
  for (const auto& kernel : kernels_) {
    if (kernel == nullptr) {
      continue;
    }
    for (const Footprint::Item& item : kernel->footprint().items) {
      auto it = std::find_if(total.items.begin(), total.items.end(),
                             [&](const Footprint::Item& t) { return t.name == item.name; });
      if (it == total.items.end()) {
        total.add(item.name, item.bytes);
      } else {
        it->bytes += item.bytes;
      }
    }
  }
  return total;
}

}  // namespace spaden::kern
