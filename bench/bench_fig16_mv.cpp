//===-- bench/bench_fig16_mv.cpp - Figure 16 reproduction -----------------===//
//
// Figure 16: matrix-vector multiplication as naive, optimized WITHOUT
// partition-camping elimination ("Opti_PC"), fully optimized, and the
// CUBLAS-like library kernel. The paper shows Opti_PC already beating
// CUBLAS and the address-offset insertion adding a further gain (the
// thread blocks are 1-D, so diagonal reordering cannot apply).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/CublasLike.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

void runMv(long long N, int Which) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  Module M;
  DiagnosticsEngine D;
  const char *Label = Which == 0   ? "naive"
                      : Which == 1 ? "Opti_PC"
                      : Which == 2 ? "optimized"
                                   : "CUBLAS-like";
  double Ms = 0, Camping = 1;
  KernelFunction *K = nullptr;
  // Owns the winner's Module: it must outlive the measurement below.
  CompileOutput Out;
  if (Which == 0) {
    K = parseNaive(M, Algo::MV, N, D);
  } else if (Which == 3) {
    K = cublasLikeKernel(M, Algo::MV, N, D);
  } else if (KernelFunction *Naive = parseNaive(M, Algo::MV, N, D)) {
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = Dev;
    Opt.PartitionElim = Which == 2;
    Out = GC.compile(*Naive, Opt);
    K = Out.Best;
  }
  if (K) {
    PerfResult R = measure(Dev, *K);
    if (R.Valid) {
      Ms = R.TimeMs;
      Camping = R.Timing.CampingFactor;
    }
  }
  double Flops = algoFlops(Algo::MV, N);
  Report::get().add(strFormat("mv n=%-5lld %-12s", N, Label),
                    {{"gflops", Ms > 0 ? Flops / (Ms * 1e6) : 0},
                     {"camping_factor", Camping}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle("Figure 16: mv naive / Opti_PC / optimized / "
                         "CUBLAS-like (GTX 280)");
  for (long long N : {1024LL, 2048LL, 4096LL})
    for (int Which : {0, 1, 2, 3})
      runMv(N, Which);
  return Report::get().finish(argv[0]);
}
