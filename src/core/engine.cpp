#include "core/spaden.hpp"

#include <span>
#include <utility>

#include "common/error.hpp"
#include "kernels/sharded.hpp"

namespace spaden {

struct SpmvEngine::Impl {
  mat::Csr matrix;  // kept for first-run verification
  EngineOptions options;
  kern::Method method;
  sim::DeviceGroup group;                      // every device launched on, 1 included
  std::unique_ptr<kern::SpmvKernel> kernel;    // num_devices == 1 only
  std::unique_ptr<kern::ShardedSpmv> sharded;  // num_devices > 1 only
  PrepInfo prep;
  std::unique_ptr<Telemetry> telemetry;  // null unless options.telemetry
  bool verified = false;
  sim::Buffer<float> x_cache;       // device x of the last multiply
  std::uint64_t x_cache_gen = 0;    // generation tag of x_cache (0 = none)

  SpmvResult multiply_sharded(const std::vector<float>& x, std::vector<float>& y,
                              std::uint64_t x_generation);

  /// The single-device path's device (the group's only member).
  sim::Device& device() { return group.device(0); }

  Impl(const mat::Csr& a, EngineOptions opts)
      : matrix(a),
        options(std::move(opts)),
        method(options.method.value_or(auto_select(a))),
        group(options.device, options.num_devices) {
    if (options.sim_threads > 0) {
      group.set_sim_threads(options.sim_threads);
    }
    group.set_sanitize(options.sanitize);
    group.set_profile(options.profile);
    group.set_sched(options.sched);
    group.set_shared_l2(options.shared_l2);
    if (group.size() > 1) {
      sharded = std::make_unique<kern::ShardedSpmv>(group, method);
    } else {
      kernel = kern::make_kernel(method);
    }
    if (options.telemetry) {
      telemetry = std::make_unique<Telemetry>();
      telemetry->set_label("method", std::string(kern::method_name(method)));
      telemetry->set_label("device", group.spec().name);
      if (group.size() > 1) {
        telemetry->set_label("devices", std::to_string(group.size()));
      }
      group.set_launch_log(true);
    }

    // The convert span is PrepInfo's single source of truth: prep.seconds
    // IS the span's host seconds (and, telemetry on, the same value the
    // spaden_convert_host_seconds histogram observes).
    ScopedSpan convert_span(telemetry.get(), "convert");
    if (sharded != nullptr) {
      sharded->prepare(matrix);
    } else {
      kernel->prepare(device(), matrix);
    }
    prep.seconds = convert_span.close();
    prep.ns_per_nnz = matrix.nnz() == 0
                          ? 0.0
                          : prep.seconds * 1e9 / static_cast<double>(matrix.nnz());
    prep.footprint = sharded != nullptr ? sharded->footprint() : kernel->footprint();
    prep.bytes_per_nnz = prep.footprint.bytes_per_nnz(matrix.nnz());

    if (options.verify_format) {
      ScopedSpan span(telemetry.get(), "verify_format");
      const san::FormatReport report =
          sharded != nullptr ? sharded->check_format() : kernel->check_format();
      SPADEN_REQUIRE(report.ok(), "uploaded %s format fails verification:\n%s",
                     report.format.c_str(), report.summary().c_str());
      if (telemetry != nullptr) {
        telemetry->metrics()
            .counter("spaden_format_verifications_total", telemetry->labels(),
                     "spaden-verify sweeps over the uploaded format")
            .inc();
      }
    }

    if (telemetry != nullptr) {
      met::MetricsRegistry& reg = telemetry->metrics();
      const met::LabelSet& labels = telemetry->labels();
      reg.gauge("spaden_matrix_rows", labels, "Rows of the engine's matrix")
          .set(static_cast<double>(matrix.nrows));
      reg.gauge("spaden_matrix_cols", labels, "Columns of the engine's matrix")
          .set(static_cast<double>(matrix.ncols));
      reg.gauge("spaden_matrix_nnz", labels, "Nonzeros of the engine's matrix")
          .set(static_cast<double>(matrix.nnz()));
      reg.gauge("spaden_prep_bytes_per_nnz", labels,
                "Device bytes per nonzero of the prepared format")
          .set(prep.bytes_per_nnz);
      reg.gauge("host_convert_ns_per_nnz", labels,
                "Host conversion nanoseconds per nonzero (wall clock)")
          .set(prep.ns_per_nnz);
    }
  }
};

// Multi-device multiply (gpusim/multidevice): ShardedSpmv does the real
// work — per-device upload, halo gating, launch, y concatenation — and the
// engine keeps its responsibilities identical to the single-device path:
// first-run verification, telemetry spans, log collection, result assembly.
SpmvResult SpmvEngine::Impl::multiply_sharded(const std::vector<float>& x,
                                              std::vector<float>& y,
                                              std::uint64_t x_generation) {
  Telemetry* tel = telemetry.get();
  ScopedSpan multiply_span(tel, "multiply");
  if (options.verify_first_run && !verified) {
    ScopedSpan span(tel, "verify");
    (void)sharded->verify();
    verified = true;
  }
  const kern::GroupResult launch = sharded->multiply(x, y, x_generation);
  if (tel != nullptr) {
    for (int d = 0; d < group.size(); ++d) {
      const sim::Device& dev = group.device(d);
      const std::vector<sim::ProfileReport>& profiles = dev.profile_log();
      tel->record_launches(dev.launch_log(), profiles.empty() ? nullptr : &profiles, d);
    }
  }

  SpmvResult result;
  result.modeled_seconds = launch.modeled_seconds;
  result.gflops = launch.modeled_seconds > 0 ? launch.gflops(matrix.nnz()) : 0.0;
  result.stats = launch.stats;
  result.time = launch.time;
  for (int d = 0; d < group.size(); ++d) {
    const sim::Device& dev = group.device(d);
    result.sanitizer.merge(dev.sanitizer_log());
    result.profiles.insert(result.profiles.end(), dev.profile_log().begin(),
                           dev.profile_log().end());
    result.device_profiles.push_back(dev.profile_log());
  }
  if (tel != nullptr) {
    met::MetricsRegistry& reg = tel->metrics();
    reg.counter("spaden_multiplies_total", tel->labels(), "Engine multiply calls").inc();
    if (result.sanitizer.enabled) {
      reg.counter("spaden_sanitizer_findings_total", tel->labels(),
                  "spaden-sancheck findings across all multiplies")
          .inc(result.sanitizer.total());
    }
    multiply_span.set_modeled_seconds(result.modeled_seconds);
  }
  multiply_span.close();
  return result;
}

SpmvEngine::SpmvEngine(const mat::Csr& a, EngineOptions options)
    : impl_(std::make_unique<Impl>(a, std::move(options))) {}

SpmvEngine::~SpmvEngine() = default;
SpmvEngine::SpmvEngine(SpmvEngine&&) noexcept = default;
SpmvEngine& SpmvEngine::operator=(SpmvEngine&&) noexcept = default;

kern::Method SpmvEngine::auto_select(const mat::Csr& a) {
  // Paper §5.1: "We suggest considering our approach for matrices with
  // nrow > 10,000 and nnz/nrow > 32."
  if (a.nrows > 10'000 && a.avg_degree() > 32.0) {
    return kern::Method::Spaden;
  }
  return kern::Method::CusparseCsr;
}

SpmvResult SpmvEngine::multiply(const std::vector<float>& x, std::vector<float>& y,
                                std::uint64_t x_generation) {
  SPADEN_REQUIRE(x.size() == impl_->matrix.ncols, "x size %zu != ncols %u", x.size(),
                 impl_->matrix.ncols);
  if (impl_->sharded != nullptr) {
    return impl_->multiply_sharded(x, y, x_generation);
  }
  Telemetry* tel = impl_->telemetry.get();
  sim::Device& device = impl_->device();
  ScopedSpan multiply_span(tel, "multiply");
  if (impl_->options.verify_first_run && !impl_->verified) {
    ScopedSpan span(tel, "verify");
    (void)kern::verify_kernel(*impl_->kernel, device, impl_->matrix);
    impl_->verified = true;
  }
  // Upload-skip: the device copy is current when the nonzero generation
  // matches the cached one AND x equals the cached host copy. The tag alone
  // is no proof (two servers on one registry both number requests from 0),
  // and the O(ncols) compare costs less than the upload it saves. The skip
  // keeps the whole upload span out of the trace (tests pin that).
  const bool x_current = x_generation != 0 && x_generation == impl_->x_cache_gen &&
                         std::as_const(impl_->x_cache).host() == x;
  if (!x_current) {
    ScopedSpan upload_span(tel, "upload");
    impl_->x_cache = device.memory().upload(x, "x");
    impl_->x_cache_gen = x_generation;
    upload_span.close();
  }
  auto y_buf = device.memory().alloc<float>(impl_->matrix.nrows, "y");
  // The device logs accumulate across launches; clearing here scopes the
  // reports to this multiply even for kernels that launch more than once.
  device.clear_sanitizer_log();
  device.clear_profile_log();
  if (tel != nullptr) {
    device.clear_launch_log();
  }
  // One logical multiply = one batch id, so multi-launch kernels group
  // under a single span in the stitched trace.
  device.set_batch_id(device.alloc_batch_id());
  const sim::LaunchResult launch =
      impl_->kernel->run(device, impl_->x_cache.cspan(), y_buf.span());
  if (tel != nullptr) {
    // Launch spans go in here, before the download span opens, so the
    // stitched timeline keeps chronological order within the multiply.
    const std::vector<sim::ProfileReport>& profiles = device.profile_log();
    tel->record_launches(device.launch_log(), profiles.empty() ? nullptr : &profiles);
  }
  ScopedSpan download_span(tel, "download");
  y = y_buf.host();
  download_span.close();

  SpmvResult result;
  result.modeled_seconds = launch.seconds();
  result.gflops = launch.gflops(impl_->matrix.nnz());
  result.stats = launch.stats;
  result.time = launch.time;
  result.sanitizer = device.sanitizer_log();
  result.profiles = device.profile_log();
  if (tel != nullptr) {
    met::MetricsRegistry& reg = tel->metrics();
    reg.counter("spaden_multiplies_total", tel->labels(), "Engine multiply calls").inc();
    if (result.sanitizer.enabled) {
      reg.counter("spaden_sanitizer_findings_total", tel->labels(),
                  "spaden-sancheck findings across all multiplies")
          .inc(result.sanitizer.total());
    }
    multiply_span.set_modeled_seconds(result.modeled_seconds);
  }
  multiply_span.close();
  return result;
}

SpmvResult SpmvEngine::multiply_batch(const std::vector<const std::vector<float>*>& xs,
                                      std::vector<std::vector<float>>& ys) {
  const auto k = static_cast<mat::Index>(xs.size());
  SPADEN_REQUIRE(k >= 1, "multiply_batch needs at least one right-hand side");
  SPADEN_REQUIRE(impl_->sharded == nullptr,
                 "multiply_batch runs on a single device (num_devices == 1); "
                 "got %d devices",
                 impl_->group.size());
  for (const std::vector<float>* x : xs) {
    SPADEN_REQUIRE(x != nullptr && x->size() == impl_->matrix.ncols,
                   "batch x size != ncols %u", impl_->matrix.ncols);
  }
  Telemetry* tel = impl_->telemetry.get();
  sim::Device& device = impl_->device();
  ScopedSpan batch_span(tel, "multiply_batch");
  if (impl_->options.verify_first_run && !impl_->verified) {
    ScopedSpan span(tel, "verify");
    (void)kern::verify_kernel(*impl_->kernel, device, impl_->matrix);
    impl_->verified = true;
  }
  ScopedSpan upload_span(tel, "upload");
  const mat::Index ncols = impl_->matrix.ncols;
  const mat::Index nrows = impl_->matrix.nrows;
  auto x_buf = device.memory().upload(
      kern::pack_column_stack(k, ncols, [&](mat::Index c, mat::Index i) { return (*xs[c])[i]; }),
      "batch.x");
  upload_span.close();
  auto y_buf = device.memory().alloc<float>(k * kern::column_stride(nrows), "batch.y");
  device.clear_sanitizer_log();
  device.clear_profile_log();
  if (tel != nullptr) {
    device.clear_launch_log();
  }
  const sim::LaunchResult launch =
      impl_->kernel->run_multi(device, x_buf.cspan(), y_buf.span(), k);
  if (tel != nullptr) {
    const std::vector<sim::ProfileReport>& profiles = device.profile_log();
    tel->record_launches(device.launch_log(), profiles.empty() ? nullptr : &profiles);
  }
  ScopedSpan download_span(tel, "download");
  ys.resize(xs.size());
  for (mat::Index c = 0; c < k; ++c) {
    const std::span<const float> y = kern::stack_column(y_buf.host(), nrows, c);
    ys[c].assign(y.begin(), y.end());
  }
  download_span.close();

  SpmvResult result;
  result.modeled_seconds = launch.seconds();
  result.gflops = 2.0 * static_cast<double>(impl_->matrix.nnz()) * k /
                  result.modeled_seconds / 1e9;
  result.stats = launch.stats;
  result.time = launch.time;
  result.sanitizer = device.sanitizer_log();
  result.profiles = device.profile_log();
  if (tel != nullptr) {
    met::MetricsRegistry& reg = tel->metrics();
    reg.counter("spaden_multiplies_total", tel->labels(), "Engine multiply calls").inc(k);
    reg.counter("spaden_batch_launches_total", tel->labels(),
                "Batched multiply_batch dispatches")
        .inc();
    if (result.sanitizer.enabled) {
      reg.counter("spaden_sanitizer_findings_total", tel->labels(),
                  "spaden-sancheck findings across all multiplies")
          .inc(result.sanitizer.total());
    }
    batch_span.set_modeled_seconds(result.modeled_seconds);
  }
  batch_span.close();
  return result;
}

SpmvResult SpmvEngine::multiply_batch(const std::vector<std::vector<float>>& xs,
                                      std::vector<std::vector<float>>& ys) {
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(xs.size());
  for (const std::vector<float>& x : xs) {
    ptrs.push_back(&x);
  }
  return multiply_batch(ptrs, ys);
}

void SpmvEngine::set_telemetry_label(std::string key, std::string value) {
  if (impl_->telemetry != nullptr) {
    impl_->telemetry->set_label(std::move(key), std::move(value));
  }
}

san::FormatReport SpmvEngine::check_format() const {
  return impl_->sharded != nullptr ? impl_->sharded->check_format()
                                   : impl_->kernel->check_format();
}

int SpmvEngine::num_devices() const { return impl_->group.size(); }

std::size_t SpmvEngine::sim_host_bytes() const {
  std::size_t total = 0;
  for (int d = 0; d < impl_->group.size(); ++d) {
    total += impl_->group.device(d).cache_host_bytes();
  }
  return total;
}

const Telemetry* SpmvEngine::telemetry() const { return impl_->telemetry.get(); }

kern::Method SpmvEngine::chosen_method() const { return impl_->method; }
const PrepInfo& SpmvEngine::prep() const { return impl_->prep; }
const sim::DeviceSpec& SpmvEngine::device() const { return impl_->group.spec(); }
mat::Index SpmvEngine::nrows() const { return impl_->matrix.nrows; }
mat::Index SpmvEngine::ncols() const { return impl_->matrix.ncols; }
std::size_t SpmvEngine::nnz() const { return impl_->matrix.nnz(); }

}  // namespace spaden
