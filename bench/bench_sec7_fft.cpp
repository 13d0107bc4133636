//===-- bench/bench_sec7_fft.cpp - Section 7 FFT case study ---------------===//
//
// Section 7's algorithm-exploration narrative, as GFLOPS of five
// variants (paper's numbers in parentheses, on GTX 280 at 2^20 points;
// ours run 2^18 so radix-8 stage counts divide evenly):
//
//   naive 2-point kernel            (24 GFLOPS)
//   CUFFT-2.2-like fixed config     (26 GFLOPS)
//   compiler thread-merged 2-point  (41 GFLOPS)  "8-point per step"
//   naive 8-point kernel            (44 GFLOPS)
//   compiler-optimized 8-point      (59 GFLOPS)
//
// The ordering — compiler merging helps, but a better algorithm (radix-8)
// plus the compiler beats both — is the claim being reproduced.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/FftKernels.h"
#include "core/ThreadMerge.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

constexpr long long FftN = 1 << 18;

/// Simulated time of \p K on the GTX 280 model; 0 when \p K failed to
/// build or run.
double timeMs(const KernelFunction *K) {
  if (!K)
    return 0;
  PerfResult R = measure(DeviceSpec::gtx280(), *K);
  return R.Valid ? R.TimeMs : 0;
}

void report(const char *Label, double Paper, double Ms) {
  double Gflops = Ms > 0 ? fftFlops(FftN) / (Ms * 1e6) : 0;
  Report::get().add(strFormat("%-28s", Label),
                    {{"gflops", Gflops}, {"paper_gflops", Paper}});
}

double fft2NaiveMs() {
  Module M;
  DiagnosticsEngine D;
  return timeMs(parseFft2(M, FftN, D));
}

double fft2CufftLikeMs() {
  // A library's fixed configuration: radix-2 with a larger block, no
  // register blocking.
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft2(M, FftN, D);
  if (K) {
    K->launch().BlockDimX = 128;
    K->launch().GridDimX = K->workDomainX() / 128;
  }
  return timeMs(K);
}

double fft2MergedMs() {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft2(M, FftN, D);
  if (K) {
    // The compiler merges threads for register reuse and, per Section
    // 3.5.3, block-merges to reach enough threads per block (fft2 has no
    // half-warp-specific staging, so the block merge is launch-only).
    K->launch().BlockDimX = 128;
    K->launch().GridDimX = K->workDomainX() / 128;
    threadMerge(*K, M.context(), 4, /*AlongY=*/false);
  }
  return timeMs(K);
}

double fft8NaiveMs() {
  Module M;
  DiagnosticsEngine D;
  return timeMs(parseFft8(M, FftN, D));
}

double fft8OptimizedMs() {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft8(M, FftN, D);
  if (K) {
    // Compiler contribution on top of the better algorithm: a wider
    // block for latency hiding plus a thread merge of 2 (register reuse
    // of the shared loop machinery).
    K->launch().BlockDimX = 128;
    K->launch().GridDimX = K->workDomainX() / 128;
    threadMerge(*K, M.context(), 2, /*AlongY=*/false);
  }
  return timeMs(K);
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle("Section 7: 1-D FFT case study "
                         "(2^18 complex points, GTX 280 model)");
  Report::get().addNote("paper ran 2^20 points; 2^18 keeps radix-8 stage "
                        "counts integral (shape-preserving substitution)");
  report("fft2 naive (2-pt steps)", 24, fft2NaiveMs());
  report("CUFFT-2.2-like (radix-2)", 26, fft2CufftLikeMs());
  report("fft2 + thread merge x4", 41, fft2MergedMs());
  report("fft8 naive (8-pt steps)", 44, fft8NaiveMs());
  report("fft8 + compiler merge", 59, fft8OptimizedMs());
  return Report::get().finish(argv[0]);
}
