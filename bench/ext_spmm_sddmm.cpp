// Extension bench (paper §7 future work): bitBSR SpMM and SDDMM on tensor
// cores vs their CUDA-core CSR baselines, across dense widths.
//
// The headline quantity is tensor-core utilization: SpMV uses 2 of a
// fragment's 16 output columns (the paper's §4.3 design), SpMM uses all of
// them from k = 16 on — so the bitBSR+TC approach should scale much better
// with the dense width k than it does at k = 1. The MMA column is the MMA
// count per 16-column RHS tile.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "matrix/dense.hpp"

using namespace spaden;

int main() {
  const double scale = mat::bench_scale();
  bench::print_banner("Extension: bitBSR SpMM / SDDMM (paper §7)", scale);

  for (const char* name : {"cant", "Si41Ge41H72"}) {
    const auto& info = mat::dataset_by_name(name);
    const mat::Csr a = bench::load_with_progress(info, scale);

    std::printf("--- SpMM on %s (L40) ---\n", name);
    Table spmm_table({"k", "CSR GFLOPS", "Spaden GFLOPS", "speedup", "MMA/16-col tile"});
    for (const mat::Index k : {8u, 32u, 128u}) {
      const mat::Dense b = mat::random_dense(a.ncols, k, 17);
      sim::Device d1(sim::l40());
      sim::Device d2(sim::l40());
      std::fprintf(stderr, "[run] spmm k=%u on %s...\n", k, name);
      const kern::SpmmResult csr = kern::spmm_csr(d1, a, b);
      const kern::SpmmResult spd = kern::spmm_spaden(d2, a, b);
      spmm_table.add_row(
          {strfmt("%u", k), fmt_double(csr.gflops(a.nnz(), k), 1),
           fmt_double(spd.gflops(a.nnz(), k), 1),
           strfmt("%.2fx", csr.launch.seconds() / spd.launch.seconds()),
           strfmt("%llu", static_cast<unsigned long long>(
                              spd.launch.stats.tc_mma_m16n16k16 / ((k + 15) / 16)))});
    }
    std::fputs(spmm_table.to_string().c_str(), stdout);

    std::printf("\n--- SDDMM on %s (L40) ---\n", name);
    Table sddmm_table({"depth", "CSR GFLOPS", "Spaden GFLOPS", "speedup"});
    for (const mat::Index depth : {16u, 64u}) {
      const mat::Dense u = mat::random_dense(a.nrows, depth, 18);
      const mat::Dense v = mat::random_dense(a.ncols, depth, 19);
      sim::Device d1(sim::l40());
      sim::Device d2(sim::l40());
      std::fprintf(stderr, "[run] sddmm depth=%u on %s...\n", depth, name);
      const kern::SddmmResult csr = kern::sddmm_csr(d1, a, u, v);
      const kern::SddmmResult spd = kern::sddmm_spaden(d2, a, u, v);
      sddmm_table.add_row({strfmt("%u", depth), fmt_double(csr.gflops(a.nnz(), depth), 1),
                           fmt_double(spd.gflops(a.nnz(), depth), 1),
                           strfmt("%.2fx", csr.launch.seconds() / spd.launch.seconds())});
    }
    std::fputs(sddmm_table.to_string().c_str(), stdout);
    std::printf("\n");
  }
  return 0;
}
