// Ablation: the two design decisions inside Spaden's kernel (paper §4.3).
//
//   * Pairing — two block-rows per warp, 16 output rows per MMA ("a double
//     of DASP's throughput"). Spaden fills all four fragment portions with
//     two blocks of each block-row, where the paper's Fig. 5 places one of
//     each on the diagonal. The Unpaired variant keeps everything else and
//     fills only the top-left portion with one block: half the rows per
//     warp and about four times the MMAs.
//   * Direct register access (§3) — the Conventional variant routes both
//     fragments through the documented WMMA staging path (a 256-element
//     shared-memory round trip per fragment per MMA, zeros included).
#include <cstdio>

#include "bench_common.hpp"

using namespace spaden;

int main() {
  const double scale = mat::bench_scale();
  bench::print_banner("Ablation: block pairing and direct register access (L40)", scale);

  const std::vector<kern::Method> methods = {
      kern::Method::Spaden,
      kern::Method::SpadenUnpaired,
      kern::Method::SpadenConventional,
      kern::Method::SpadenWide,
  };

  Table table({"Matrix", "Spaden", "unpaired", "WMMA path", "Spaden-16", "pairing gain",
               "direct-access gain", "MMAs paired", "MMAs unpaired"});
  std::vector<double> pairing_gains;
  std::vector<double> access_gains;
  for (const char* name : {"conf5", "cant", "pwtk", "Si41Ge41H72"}) {
    const auto& info = mat::dataset_by_name(name);
    const mat::Csr a = bench::load_with_progress(info, scale);
    const auto paired = bench::run_with_progress(sim::l40(), methods[0], a, name);
    const auto unpaired = bench::run_with_progress(sim::l40(), methods[1], a, name);
    const auto conventional = bench::run_with_progress(sim::l40(), methods[2], a, name);
    const auto wide = bench::run_with_progress(sim::l40(), methods[3], a, name);
    pairing_gains.push_back(paired.gflops / unpaired.gflops);
    access_gains.push_back(paired.gflops / conventional.gflops);
    table.add_row({name, fmt_double(paired.gflops, 1), fmt_double(unpaired.gflops, 1),
                   fmt_double(conventional.gflops, 1), fmt_double(wide.gflops, 1),
                   strfmt("%.2fx", pairing_gains.back()),
                   strfmt("%.2fx", access_gains.back()),
                   strfmt("%llu",
                          static_cast<unsigned long long>(paired.stats.tc_mma_m16n16k16)),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      unpaired.stats.tc_mma_m16n16k16))});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nGeomean gains: pairing %.2fx, direct register access %.2fx.\n"
      "Spaden holds two blocks of each of its two block-rows per MMA (four\n"
      "8x8 blocks per fragment; the paper's Fig. 5 holds two), so the\n"
      "unpaired variant, one block per MMA, issues ~4x the MMAs for the same\n"
      "work and halves the rows in flight per warp; the conventional path\n"
      "pays a 3x256 lane-op staging round trip per fragment pair per MMA —\n"
      "the two overheads §4.3.3 credits Spaden with eliminating. Spaden-16\n"
      "trades the pairing for one 16x16 block per fragment (bitBSR16): the\n"
      "same 16 rows per pass, with block fill deciding which granularity\n"
      "stores and streams less.\n",
      analysis::geomean(pairing_gains), analysis::geomean(access_gains));
  return 0;
}
