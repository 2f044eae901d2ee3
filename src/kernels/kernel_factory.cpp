#include "common/error.hpp"
#include "kernels/internal.hpp"
#include "kernels/kernel.hpp"

namespace spaden::kern {

std::unique_ptr<SpmvKernel> make_kernel(Method m) {
  switch (m) {
    case Method::CusparseCsr:
      return make_csr_vector();
    case Method::CusparseBsr:
      return make_bsr_kernel();
    case Method::LightSpmv:
      return make_lightspmv();
    case Method::Gunrock:
      return make_gunrock();
    case Method::Dasp:
      return make_dasp();
    case Method::Spaden:
      return make_spaden(SpadenVariant::TensorCore);
    case Method::SpadenNoTc:
      return make_spaden(SpadenVariant::NoTensorCore);
    case Method::SpadenConventional:
      return make_spaden(SpadenVariant::Conventional);
    case Method::SpadenUnpaired:
      return make_spaden(SpadenVariant::Unpaired);
    case Method::SpadenWide:
      return make_spaden_wide();
    case Method::CsrWarp16:
      return make_csr_warp16();
    case Method::CsrAdaptive:
      return make_csr_adaptive();
  }
  throw Error("unknown SpMV method");
}

}  // namespace spaden::kern
