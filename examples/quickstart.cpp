//===-- examples/quickstart.cpp - five-minute tour of the gpuc API --------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// Quickstart: write a naive kernel, compile it, read the optimized CUDA,
// validate it on the simulator and compare performance.
//
//   $ ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/CpuReference.h"
#include "core/Compiler.h"
#include "parser/Parser.h"

#include <cstdio>

using namespace gpuc;

int main() {
  // 1. A naive kernel: one thread computes one output element. No shared
  //    memory, no tiling, no tuning — that is the compiler's job.
  const char *Source = R"(
    #pragma gpuc output(c)
    #pragma gpuc bind(w=512)
    __global__ void mm(float a[512][512], float b[512][512],
                       float c[512][512], int w) {
      float sum = 0;
      for (int i = 0; i < w; i++) {
        sum += a[idy][i] * b[i][idx];
      }
      c[idy][idx] = sum;
    }
  )";

  Module M;
  DiagnosticsEngine Diags;
  Parser P(Source, Diags);
  KernelFunction *Naive = P.parseKernel(M);
  if (!Naive) {
    std::fprintf(stderr, "parse failed:\n%s", Diags.str().c_str());
    return 1;
  }

  // 2. Compile: the pipeline of the paper's Figure 1 plus the empirical
  //    design-space search of Section 4 (each candidate version is
  //    test-run on the GPU model).
  GpuCompiler GC(M, Diags);
  CompileOptions Opt;
  Opt.Device = DeviceSpec::gtx280();
  CompileOutput Out = GC.compile(*Naive);
  if (!Out.Best) {
    std::fprintf(stderr, "compilation failed:\n%s%s", Diags.str().c_str(),
                 Out.Log.c_str());
    return 1;
  }

  std::printf("picked variant: %d merged blocks along X, "
              "%d merged threads along Y (%zu versions explored)\n\n",
              Out.BestVariant.BlockMergeN, Out.BestVariant.ThreadMergeM,
              Out.Variants.size());

  // 3. The optimized kernel is readable CUDA — the paper's
  //    understandability claim.
  std::printf("%s\n", printKernel(*Out.Best).c_str());

  // 4. Validate numerically against the naive kernel's own output.
  Simulator Sim(Opt.Device);
  BufferSet NaiveBufs, OptBufs;
  initInputs(Algo::MM, 512, NaiveBufs);
  initInputs(Algo::MM, 512, OptBufs);
  if (!Sim.runFunctional(*Naive, NaiveBufs, Diags) ||
      !Sim.runFunctional(*Out.Best, OptBufs, Diags)) {
    std::fprintf(stderr, "execution failed:\n%s", Diags.str().c_str());
    return 1;
  }
  long long Bad =
      countMismatches(OptBufs.data("c"), NaiveBufs.data("c"));
  std::printf("functional check: %lld mismatches\n", Bad);

  // 5. Compare simulated performance.
  PerfResult RNaive = Sim.runPerformance(*Naive, Diags);
  PerfResult ROpt = Sim.runPerformance(*Out.Best, Diags);
  double Flops = algoFlops(Algo::MM, 512);
  std::printf("naive:     %8.3f ms  (%6.1f GFLOPS)\n", RNaive.TimeMs,
              RNaive.gflops(Flops));
  std::printf("optimized: %8.3f ms  (%6.1f GFLOPS)  -> %.1fx speedup\n",
              ROpt.TimeMs, ROpt.gflops(Flops), RNaive.TimeMs / ROpt.TimeMs);
  return Bad == 0 ? 0 : 1;
}
