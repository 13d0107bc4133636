//===-- examples/mm_casestudy.cpp - Section 5 walkthrough -----------------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// Reproduces the paper's Section 5 case study: matrix multiplication
// through every compilation stage, printing the kernel after each step —
// the same progression as the paper's Figures 2a, 3a, 5 and 7 — and the
// design-space table of Figure 10.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"

#include <cstdio>

using namespace gpuc;

namespace {

void banner(const char *Title) {
  std::printf("\n//--- %s "
              "----------------------------------------------------\n\n",
              Title);
}

} // namespace

int main() {
  const long long N = 1024;
  Module M;
  DiagnosticsEngine Diags;
  KernelFunction *Naive = parseNaive(M, Algo::MM, N, Diags);
  if (!Naive) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  GpuCompiler GC(M, Diags);
  DeviceSpec Dev = DeviceSpec::gtx280();

  banner("Figure 2a: the naive kernel (input to the compiler)");
  std::printf("%s", printKernel(*Naive).c_str());

  banner("Figure 3a: after memory-coalescing conversion");
  CompileOptions CoalOpt;
  CoalOpt.Merge = CoalOpt.Prefetch = CoalOpt.PartitionElim = false;
  std::printf("%s",
              printKernel(*GC.compileVariant(*Naive, CoalOpt, 1, 1)).c_str());

  banner("Figure 5: after merging 2 thread blocks along X");
  CompileOptions MergeOpt = CoalOpt;
  MergeOpt.Merge = true;
  std::printf("%s",
              printKernel(*GC.compileVariant(*Naive, MergeOpt, 2, 1)).c_str());

  banner("Figure 7: after additionally merging 4 threads along Y");
  std::printf("%s",
              printKernel(*GC.compileVariant(*Naive, MergeOpt, 2, 4)).c_str());

  banner("Figure 10: the design space (GTX 280)");
  MergePlan Plan;
  GC.compileVariant(*Naive, CompileOptions(), 1, 1, &Plan);
  std::printf("sharing analysis: block-merge-X=%d thread-merge-Y=%d "
              "(a staged to shared memory -> tile; b read to registers "
              "-> unroll)\n\n",
              Plan.BlockMergeX, Plan.ThreadMergeY);
  std::printf("%-10s", "blk\\thr");
  for (int TM : {4, 8, 16, 32})
    std::printf(" %8d", TM);
  std::printf("   (GFLOPS)\n");
  double Flops = algoFlops(Algo::MM, N);
  for (int BN : {8, 16, 32}) {
    std::printf("%-10d", BN);
    for (int TM : {4, 8, 16, 32}) {
      KernelFunction *V = GC.compileVariant(*Naive, CompileOptions(), BN, TM);
      double G = 0;
      if (V && !computeOccupancy(Dev, *V).Infeasible) {
        Simulator Sim(Dev);
        DiagnosticsEngine D;
        PerfResult R = Sim.runPerformance(*V, D);
        if (R.Valid)
          G = R.gflops(Flops);
      }
      if (G > 0)
        std::printf(" %8.1f", G);
      else
        std::printf(" %8s", "-");
    }
    std::printf("\n");
  }

  banner("the empirically selected best version");
  CompileOutput Out = GC.compile(*Naive);
  if (Out.Best)
    std::printf("blocks=%d threads=%d -> %s\n", Out.BestVariant.BlockMergeN,
                Out.BestVariant.ThreadMergeM, Out.Best->name().c_str());
  return 0;
}
