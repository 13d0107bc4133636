//===-- bench/bench_fig11_speedups.cpp - Figure 11 reproduction -----------===//
//
// Figure 11: speedup of the compiler-optimized kernel over the naive one
// for all ten algorithms, on both GTX 8800 and GTX 280. The paper reports
// geometric means of 15.1x (8800) and 7.9x (280) — the newer GPU benefits
// less because its baseline is stronger.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

long long benchSize(Algo A) {
  switch (A) {
  case Algo::RD:
    return 1 << 21;
  case Algo::VV:
    return 1 << 20;
  case Algo::CONV:
    return 1024;
  case Algo::STRSM:
    return 512;
  default:
    return 1024;
  }
}

std::vector<double> Speed8800, Speed280;

void runSpeedup(Algo A, bool Gtx280) {
  DeviceSpec Dev = Gtx280 ? DeviceSpec::gtx280() : DeviceSpec::gtx8800();
  long long N = benchSize(A);
  Module M;
  double Speedup = 0;
  PerfResult Naive = measureNaive(M, Dev, A, N);
  CompileOutput Best = compileBest(M, Dev, A, N);
  if (Naive.Valid && Best.Best) {
    PerfResult Opt = measure(Dev, *Best.Best);
    if (Opt.Valid)
      Speedup = Naive.TimeMs / Opt.TimeMs;
  }
  (Gtx280 ? Speed280 : Speed8800).push_back(Speedup);
  Report::get().add(strFormat("%-12s %s", algoInfo(A).Name, Dev.Name.c_str()),
                    {{"speedup_x", Speedup}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Figure 11: kernel speedup of optimized over naive (both GPUs)");
  for (bool Gtx280 : {false, true})
    for (Algo A : table1Algos())
      runSpeedup(A, Gtx280);
  Report::get().add("GEOMEAN GTX8800 (paper 15.1x)",
                    {{"speedup_x", geomean(Speed8800)}});
  Report::get().add("GEOMEAN GTX280 (paper 7.9x)",
                    {{"speedup_x", geomean(Speed280)}});
  return Report::get().finish(argv[0]);
}
