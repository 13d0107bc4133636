//===-- examples/custom_kernel.cpp - bring your own kernel ----------------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// Shows the workflow for a kernel that is NOT one of the paper's ten:
// a Jacobi-style 5-point stencil. Demonstrates the analysis entry points
// (coalescing checker, sharing planner) that the pipeline composes, and
// compiles for both GPU generations (the hardware-specific tuning of
// Section 4.2).
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "core/Coalescing.h"
#include "core/Compiler.h"
#include "parser/Parser.h"

#include <cstdio>

using namespace gpuc;

int main() {
  // A padded 5-point stencil; rows of the padded grid stay 16-aligned.
  const char *Source = R"(
    #pragma gpuc output(out)
    #pragma gpuc domain(1024,1024)
    __global__ void jacobi(float in[1026][1040], float out[1024][1024]) {
      float c = in[idy + 1][idx + 1];
      float n = in[idy][idx + 1];
      float s = in[idy + 2][idx + 1];
      float w = in[idy + 1][idx];
      float e = in[idy + 1][idx + 2];
      out[idy][idx] = 0.2f * (c + n + s + w + e);
    }
  )";

  Module M;
  DiagnosticsEngine Diags;
  Parser P(Source, Diags);
  KernelFunction *Naive = P.parseKernel(M);
  if (!Naive) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  // Peek at what the Section 3.2 checker sees before optimizing.
  std::printf("coalescing report for the naive kernel:\n");
  for (const AccessInfo &A : collectGlobalAccesses(*Naive)) {
    CoalesceInfo CI = checkCoalescing(A, *Naive);
    std::printf("  %-6s %-24s %s\n", A.IsStore ? "store" : "load",
                printExpr(A.Ref).c_str(),
                coalesceFailureName(CI.Failure));
  }

  GpuCompiler GC(M, Diags);
  for (DeviceSpec Dev : {DeviceSpec::gtx8800(), DeviceSpec::gtx280()}) {
    CompileOptions Opt;
    Opt.Device = Dev;
    CompileOutput Out = GC.compile(*Naive, Opt);
    if (!Out.Best) {
      std::fprintf(stderr, "compile failed for %s\n", Dev.Name.c_str());
      continue;
    }
    Simulator Sim(Dev);
    DiagnosticsEngine D;
    PerfResult RN = Sim.runPerformance(*Naive, D);
    PerfResult RO = Sim.runPerformance(*Out.Best, D);
    std::printf("\n%s: naive %.3f ms -> optimized %.3f ms (%.1fx), "
                "blocks=%d threads=%d\n",
                Dev.Name.c_str(), RN.TimeMs, RO.TimeMs,
                RN.TimeMs / RO.TimeMs, Out.BestVariant.BlockMergeN,
                Out.BestVariant.ThreadMergeM);
  }

  // Show the GTX280 version's final form.
  CompileOutput Out = GC.compile(*Naive);
  if (Out.Best)
    std::printf("\n%s\n", printKernel(*Out.Best).c_str());
  return 0;
}
