//===-- examples/opencl_port.cpp - one kernel, three GPUs -----------------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// The paper's conclusion promises OpenCL support "so that a single naive
// kernel can be optimized for different GPUs from both NVIDIA and
// AMD/ATI". This example compiles one naive streaming kernel for the
// GTX 8800, the GTX 280 and the HD 5870: the NVIDIA targets keep scalar
// accesses (their float/float2 gap is small), the AMD target gets the
// aggressive float4 grouping of Section 3.1 and OpenCL C output.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "core/Compiler.h"
#include "parser/Parser.h"

#include <cstdio>

using namespace gpuc;

int main() {
  const char *Source = R"(
    #pragma gpuc output(y)
    __global__ void saxpyish(float x[1048576], float y[1048576]) {
      y[idx] = 2.5f * x[idx] + y[idx];
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

  GpuCompiler GC(M, Diags);
  struct Target {
    DeviceSpec Dev;
    PrintDialect Dialect;
  };
  const Target Targets[] = {
      {DeviceSpec::gtx8800(), PrintDialect::Cuda},
      {DeviceSpec::gtx280(), PrintDialect::Cuda},
      {DeviceSpec::hd5870(), PrintDialect::OpenCL},
  };

  for (const Target &T : Targets) {
    CompileOptions Opt;
    Opt.Device = T.Dev;
    CompileOutput Out = GC.compile(*Naive, Opt);
    if (!Out.Best) {
      std::fprintf(stderr, "compile failed for %s\n", T.Dev.Name.c_str());
      continue;
    }
    Simulator Sim(T.Dev);
    DiagnosticsEngine D;
    PerfResult R = Sim.runPerformance(*Out.Best, D);
    double Bytes = 3.0 * 4.0 * 1048576; // 2 reads + 1 write
    std::printf("//=== %s: %.1f GB/s effective ===\n%s\n",
                T.Dev.Name.c_str(),
                R.Valid ? R.effectiveBandwidthGBs(Bytes) : 0.0,
                printKernel(*Out.Best, T.Dialect).c_str());
  }
  return 0;
}
