//===-- bench/bench_fig13_cublas.cpp - Figure 13 reproduction -------------===//
//
// Figure 13: the compiler's output versus CUBLAS-2.2-like library kernels
// for tmv, mm, mv, vv, rd and strsm across input sizes on GTX 280. The
// paper reports wins for tmv/mv/vv/strsm, parity (within 2%) for mm/rd,
// and a 26-33% geometric-mean advantage.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/CublasLike.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

std::vector<double> Ratios;

void runVsCublas(Algo A, long long N) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  Module M;
  DiagnosticsEngine D;
  double OursMs = 0, LibMs = 0;
  CompileOutput Ours = compileBest(M, Dev, A, N);
  KernelFunction *Lib = cublasLikeKernel(M, A, N, D);
  if (Ours.Best && Lib) {
    PerfResult ROurs = measure(Dev, *Ours.Best);
    PerfResult RLib = measure(Dev, *Lib);
    if (ROurs.Valid && RLib.Valid) {
      OursMs = ROurs.TimeMs;
      LibMs = RLib.TimeMs;
    }
  }
  double Flops = algoFlops(A, N);
  double Ratio = OursMs > 0 ? LibMs / OursMs : 0;
  if (Ratio > 0)
    Ratios.push_back(Ratio);
  Report::get().add(
      strFormat("%-6s n=%lld", algoInfo(A).Name, N),
      {{"ours_gflops", OursMs > 0 ? Flops / (OursMs * 1e6) : 0},
       {"cublas_gflops", LibMs > 0 ? Flops / (LibMs * 1e6) : 0},
       {"ours_over_cublas_x", Ratio}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Figure 13: optimized kernels vs CUBLAS-2.2-like library (GTX 280)");
  const Algo Six[] = {Algo::TMV, Algo::MM,   Algo::MV,
                      Algo::VV,  Algo::RD,   Algo::STRSM};
  for (Algo A : Six) {
    std::vector<long long> Sizes = {1024, 2048};
    if (A == Algo::RD)
      Sizes = {1 << 20, 1 << 22};
    if (A == Algo::VV)
      Sizes = {1 << 18, 1 << 20};
    if (A == Algo::STRSM)
      Sizes = {512, 1024};
    for (long long N : Sizes)
      runVsCublas(A, N);
  }
  Report::get().add("GEOMEAN ours/cublas (paper 1.26-1.33x)",
                    {{"x", geomean(Ratios)}});
  return Report::get().finish(argv[0]);
}
