//===-- bench/bench_fig10_mm_space.cpp - Figure 10 reproduction -----------===//
//
// Figure 10: performance effect of the number of merged thread blocks
// (X direction) and merged threads (Y direction) for matrix
// multiplication on GTX 280, for several input sizes. The paper's optimum
// is 16 merged blocks x 16 merged threads.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ast/Printer.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

void runDesignPoint(long long N, int BlockN, int ThreadM) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, N, D);
  double Gflops = 0;
  bool Feasible = false;
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = Dev;
  KernelFunction *V = GC.compileVariant(*Naive, Opt, BlockN, ThreadM);
  if (V && !computeOccupancy(Dev, *V).Infeasible) {
    PerfResult R = measure(Dev, *V);
    if (R.Valid) {
      Feasible = true;
      Gflops = R.gflops(algoFlops(Algo::MM, N));
    }
  }
  Report::get().add(
      strFormat("mm %lldx%lld  blocks=%-2d threads=%-2d%s", N, N, BlockN,
                ThreadM, Feasible ? "" : " (infeasible)"),
      {{"gflops", Gflops}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle("Figure 10: mm design space on GTX 280 "
                         "(merged blocks along X x merged threads along Y)");
  Report::get().addNote(
      "paper's optimum: 16 merged blocks, 16 merged threads");
  for (long long N : {1024LL, 2048LL})
    for (int BlockN : {8, 16, 32})
      for (int ThreadM : {4, 8, 16, 32})
        runDesignPoint(N, BlockN, ThreadM);
  return Report::get().finish(argv[0]);
}
