#include "core/spaden.hpp"

#include <utility>

#include "common/error.hpp"
#include "kernels/sharded.hpp"

namespace spaden {

struct SpmvEngine::Impl {
  EngineOptions options;
  kern::Method method;
  sim::DeviceGroup group;  // every device launched on, 1 included
  kern::ShardedSpmv runner;
  PrepInfo prep;
  std::unique_ptr<Telemetry> telemetry;  // null unless options.telemetry
  bool verified = false;

  SpmvResult execute(const std::vector<const std::vector<float>*>& xs,
                     std::vector<std::vector<float>>& ys, std::uint64_t x_generation);

  Impl(const mat::Csr& a, EngineOptions opts)
      : options(std::move(opts)),
        method(options.method.value_or(auto_select(a))),
        group(options.device, options.num_devices),
        runner(group, method) {
    if (options.sim_threads > 0) {
      group.set_sim_threads(options.sim_threads);
    }
    group.set_sanitize(options.sanitize);
    group.set_profile(options.profile);
    group.set_sched(options.sched);
    group.set_shared_l2(options.shared_l2);
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
    runner.prepare(a);
    prep.seconds = convert_span.close();
    prep.ns_per_nnz =
        a.nnz() == 0 ? 0.0 : prep.seconds * 1e9 / static_cast<double>(a.nnz());
    prep.footprint = runner.footprint();
    prep.bytes_per_nnz = prep.footprint.bytes_per_nnz(a.nnz());

    if (options.verify_format) {
      ScopedSpan span(telemetry.get(), "verify_format");
      const san::FormatReport report = runner.check_format();
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
          .set(static_cast<double>(a.nrows));
      reg.gauge("spaden_matrix_cols", labels, "Columns of the engine's matrix")
          .set(static_cast<double>(a.ncols));
      reg.gauge("spaden_matrix_nnz", labels, "Nonzeros of the engine's matrix")
          .set(static_cast<double>(a.nnz()));
      reg.gauge("spaden_prep_bytes_per_nnz", labels,
                "Device bytes per nonzero of the prepared format")
          .set(prep.bytes_per_nnz);
      reg.gauge("host_convert_ns_per_nnz", labels,
                "Host conversion nanoseconds per nonzero (wall clock)")
          .set(prep.ns_per_nnz);
    }
  }
};

// The one multiply path: k = xs.size() right-hand sides over the device
// group (a single device is a group of 1). k = 1 is an SpMV with the
// generation-tagged upload skip; k > 1 is one run_multi batch.
SpmvResult SpmvEngine::Impl::execute(const std::vector<const std::vector<float>*>& xs,
                                     std::vector<std::vector<float>>& ys,
                                     std::uint64_t x_generation) {
  const auto k = static_cast<mat::Index>(xs.size());
  SPADEN_REQUIRE(k >= 1, "multiply_batch needs at least one right-hand side");
  for (const std::vector<float>* x : xs) {
    SPADEN_REQUIRE(x != nullptr && x->size() == runner.ncols(), "x size %zu != ncols %u",
                   x == nullptr ? std::size_t{0} : x->size(), runner.ncols());
  }
  SPADEN_REQUIRE(k == 1 || group.size() == 1,
                 "a batch of %u right-hand sides runs on a single device "
                 "(num_devices == 1); got %d devices",
                 k, group.size());
  Telemetry* tel = telemetry.get();
  ScopedSpan root_span(tel, k == 1 ? "multiply" : "multiply_batch");
  if (options.verify_first_run && !verified) {
    ScopedSpan span(tel, "verify");
    (void)runner.verify();
    verified = true;
  }
  // A skipped upload keeps the whole upload span out of the trace (tests
  // pin that).
  if (!runner.x_current(xs, x_generation)) {
    ScopedSpan span(tel, "upload");
    runner.upload(xs, x_generation);
  }
  const kern::GroupResult launch = runner.launch(k);
  if (tel != nullptr) {
    // Launch spans go in here, before the download span opens, so the
    // stitched timeline keeps chronological order within the multiply.
    tel->record_launches(group);
  }
  {
    ScopedSpan span(tel, "download");
    runner.download(ys);
  }

  SpmvResult result;
  result.modeled_seconds = launch.modeled_seconds;
  const double flops = 2.0 * static_cast<double>(runner.nnz()) * k;
  result.gflops = launch.modeled_seconds > 0 ? flops / launch.modeled_seconds / 1e9 : 0.0;
  result.stats = launch.stats;
  result.time = launch.time;
  for (int d = 0; d < group.size(); ++d) {
    const sim::Device& dev = group.device(d);
    result.sanitizer.merge(dev.sanitizer_log());
    result.profiles.insert(result.profiles.end(), dev.profile_log().begin(),
                           dev.profile_log().end());
  }
  if (tel != nullptr) {
    met::MetricsRegistry& reg = tel->metrics();
    reg.counter("spaden_multiplies_total", tel->labels(), "Engine multiply calls").inc(k);
    if (k > 1) {
      reg.counter("spaden_batch_launches_total", tel->labels(),
                  "Batched multiply_batch dispatches")
          .inc();
    }
    if (result.sanitizer.enabled) {
      reg.counter("spaden_sanitizer_findings_total", tel->labels(),
                  "spaden-sancheck findings across all multiplies")
          .inc(result.sanitizer.total());
    }
    root_span.set_modeled_seconds(result.modeled_seconds);
  }
  root_span.close();
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
  std::vector<std::vector<float>> ys(1);
  ys[0] = std::move(y);
  SpmvResult result = impl_->execute({&x}, ys, x_generation);
  y = std::move(ys[0]);
  return result;
}

SpmvResult SpmvEngine::multiply_batch(const std::vector<const std::vector<float>*>& xs,
                                      std::vector<std::vector<float>>& ys) {
  return impl_->execute(xs, ys, 0);
}

SpmvResult SpmvEngine::multiply_batch(const std::vector<std::vector<float>>& xs,
                                      std::vector<std::vector<float>>& ys) {
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(xs.size());
  for (const std::vector<float>& x : xs) {
    ptrs.push_back(&x);
  }
  return impl_->execute(ptrs, ys, 0);
}

void SpmvEngine::set_telemetry_label(std::string key, std::string value) {
  if (impl_->telemetry != nullptr) {
    impl_->telemetry->set_label(std::move(key), std::move(value));
  }
}

san::FormatReport SpmvEngine::check_format() const { return impl_->runner.check_format(); }

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
mat::Index SpmvEngine::nrows() const { return impl_->runner.nrows(); }
mat::Index SpmvEngine::ncols() const { return impl_->runner.ncols(); }
std::size_t SpmvEngine::nnz() const { return impl_->runner.nnz(); }

}  // namespace spaden
