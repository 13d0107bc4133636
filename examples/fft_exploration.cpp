//===-- examples/fft_exploration.cpp - Section 7 walkthrough --------------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// The algorithm-exploration story of Section 7: the compiler cannot
// change an algorithm, but because its output is readable, it guides the
// programmer from a radix-2 FFT to a radix-8 one — and then optimizes
// that too.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/FftKernels.h"
#include "core/ThreadMerge.h"
#include "sim/Simulator.h"

#include <cmath>
#include <cstdio>

using namespace gpuc;

namespace {

double gflopsOf(KernelFunction &K, long long N) {
  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfResult R = Sim.runPerformance(K, D);
  return R.Valid ? fftFlops(N) / (R.TimeMs * 1e6) : 0;
}

} // namespace

int main() {
  const long long N = 1 << 18;
  Module M;
  DiagnosticsEngine Diags;

  std::printf("Step 1: the naive radix-2 kernel "
              "(one 2-point butterfly per thread per step)\n");
  KernelFunction *Fft2 = parseFft2(M, N, Diags);
  if (!Fft2) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  double G2 = gflopsOf(*Fft2, N);
  std::printf("  -> %.1f GFLOPS (paper: 24)\n\n", G2);

  std::printf("Step 2: the compiler merges 4 threads "
              "(the \"8-point FFT in each step\" version)\n");
  KernelFunction *Merged = parseFft2(M, N, Diags);
  Merged->launch().BlockDimX = 128;
  Merged->launch().GridDimX = Merged->workDomainX() / 128;
  threadMerge(*Merged, M.context(), 4, /*AlongY=*/false);
  double GM = gflopsOf(*Merged, N);
  std::printf("  -> %.1f GFLOPS (paper: 41)\n\n", GM);

  std::printf("Step 3: reading the merged kernel suggests the real\n"
              "8-point algorithm; the programmer writes the radix-8 naive "
              "kernel\n");
  KernelFunction *Fft8 = parseFft8(M, N, Diags);
  if (!Fft8) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  double G8 = gflopsOf(*Fft8, N);
  std::printf("  -> %.1f GFLOPS (paper: 44)\n\n", G8);

  std::printf("Step 4: the compiler optimizes the radix-8 kernel\n");
  KernelFunction *Fft8Opt = parseFft8(M, N, Diags);
  Fft8Opt->launch().BlockDimX = 128;
  Fft8Opt->launch().GridDimX = Fft8Opt->workDomainX() / 128;
  threadMerge(*Fft8Opt, M.context(), 2, /*AlongY=*/false);
  double G8O = gflopsOf(*Fft8Opt, N);
  std::printf("  -> %.1f GFLOPS (paper: 59)\n\n", G8O);

  std::printf("Validating the winning kernel against the CPU reference "
              "(n = 4096)...\n");
  Module M2;
  KernelFunction *Check = parseFft8(M2, 4096, Diags);
  BufferSet B;
  initFftInputs(4096, 8, B);
  auto [WantRe, WantIm] = fftReference(4096, 8, B);
  Simulator Sim(DeviceSpec::gtx280());
  if (!Sim.runFunctional(*Check, B, Diags)) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  auto [ReName, ImName] = fftOutputNames(4096, 8);
  double MaxErr = 0;
  const auto &GotRe = B.data(ReName);
  for (size_t I = 0; I < GotRe.size(); ++I)
    MaxErr = std::max(MaxErr,
                      static_cast<double>(std::fabs(GotRe[I] - WantRe[I])));
  std::printf("  max |re error| = %.2e\n\n", MaxErr);

  std::printf("Ordering reproduced: naive2 (%.1f) < merged (%.1f) < "
              "naive8 (%.1f) < optimized8 (%.1f)\n",
              G2, GM, G8, G8O);
  return 0;
}
