// Reproduces the paper's §3 reverse-engineering experiment against the
// emulated tensor core and prints Figures 1 and 2: the thread layout and
// register layout of a 16x16 fragment.
#include <cstdio>

#include "tensorcore/probe.hpp"

int main() {
  using namespace spaden::tc;

  std::printf("Reverse engineering the (emulated) tensor core fragment — paper §3\n\n");

  std::printf(
      "Experiment 1 (Figure 1): store the lane id in every register and\n"
      "observe which thread holds each element of the 16x16 fragment:\n\n%s\n",
      render_grid(probe_thread_layout(FragUse::MatrixA)).c_str());

  std::printf(
      "Experiment 2 (Figure 2): assign fragment.x[i] = i in every thread and\n"
      "observe the data layout. Valid register indices span only 0..7:\n\n%s\n",
      render_grid(probe_register_layout(FragUse::MatrixA)).c_str());

  std::printf(
      "Observations (the paper's findings):\n"
      " * the fragment decomposes into four repeated 8x8 portions;\n"
      " * the top-left portion maps to x[0,1] of all 32 threads, the\n"
      "   bottom-left to x[2,3], top-right to x[4,5], bottom-right to x[6,7];\n"
      " * each thread controls two consecutive elements per portion.\n\n"
      "These facts let Spaden fill the portions directly (Algorithm 3) and\n"
      "read the result columns back (Algorithm 4), skipping the shared-memory\n"
      "staging of the official WMMA API.\n\n");

  verify_reverse_engineered_layout();
  std::printf("verify_reverse_engineered_layout(): all documented facts hold.\n");
  return 0;
}
