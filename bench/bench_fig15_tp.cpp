//===-- bench/bench_fig15_tp.cpp - Figure 15 reproduction -----------------===//
//
// Figure 15: matrix transpose effective bandwidth — our compiled kernel
// vs the CUDA SDK transpose with diagonal block reordering ("SDK new",
// [Ruetsch & Micikevicius]) vs the previous SDK version, on both GPUs.
// The paper also observes that eliminating partition camping matters for
// 4k on GTX 280 but not on GTX 8800 (6 partitions don't align), while
// 3k on GTX 8800 gains 21.5%.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/CublasLike.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

void runTranspose(long long N, int Which, bool Gtx280) {
  DeviceSpec Dev = Gtx280 ? DeviceSpec::gtx280() : DeviceSpec::gtx8800();
  Module M;
  double Ms = 0;
  const char *Label = Which == 0 ? "optimized" : Which == 1 ? "SDK new"
                                                            : "SDK prev";
  KernelFunction *K = nullptr;
  // Owns the winner's Module: it must outlive the measurement below.
  CompileOutput Out;
  if (Which == 0) {
    Out = compileBest(M, Dev, Algo::TP, N);
    K = Out.Best;
  } else if (Which == 1) {
    K = sdkTransposeNew(M, N);
  } else {
    K = sdkTransposePrev(M, N);
  }
  if (K) {
    PerfResult R = measure(Dev, *K);
    if (R.Valid)
      Ms = R.TimeMs;
  }
  double GBs = Ms > 0 ? algoUsefulBytes(Algo::TP, N) / (Ms * 1e6) : 0;
  Report::get().add(strFormat("tp %lldx%lld %-7s %-9s", N, N,
                              Dev.Name.c_str(), Label),
                    {{"effective_GBps", GBs}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Figure 15: transpose effective bandwidth (GB/s)");
  Report::get().addNote("paper: optimized >= SDK new > SDK prev; camping "
                        "elimination matters at 4k on GTX280, at 3k on "
                        "GTX8800");
  for (bool Gtx280 : {true, false})
    for (long long N : {1024LL, 2048LL, 3072LL, 4096LL})
      for (int Which : {0, 1, 2})
        runTranspose(N, Which, Gtx280);
  return Report::get().finish(argv[0]);
}
