//===-- bench/bench_sec2_bandwidth.cpp - Section 2 bandwidth table --------===//
//
// Section 2 quotes sustained streaming bandwidth by access type: on
// GTX 280, 98 / 101 / 79 GB/s for float / float2 / float4. This binary
// reproduces the measurement with streaming-copy kernels over 128 MB.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/CublasLike.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

void runBandwidth(int VecWidth, int Which) {
  DeviceSpec Dev = Which == 0   ? DeviceSpec::gtx280()
                   : Which == 1 ? DeviceSpec::gtx8800()
                                : DeviceSpec::hd5870();
  const long long Floats = 32LL << 20; // 128 MB
  Module M;
  double GBs = 0;
  KernelFunction *K = bandwidthCopyKernel(M, VecWidth, Floats);
  PerfResult R = measure(Dev, *K);
  if (R.Valid)
    GBs = R.effectiveBandwidthGBs(2.0 * 4.0 * Floats);
  double Paper = 0;
  if (Which == 0)
    Paper = VecWidth == 1 ? 98 : VecWidth == 2 ? 101 : 79;
  else if (Which == 2)
    Paper = VecWidth == 1 ? 71 : VecWidth == 2 ? 98 : 101;
  std::vector<std::pair<std::string, double>> Vals = {{"GBps", GBs}};
  if (Paper > 0)
    Vals.push_back({"paper_GBps", Paper});
  Report::get().add(strFormat("%-7s float%-2d 128MB", Dev.Name.c_str(),
                              VecWidth == 1 ? 0 : VecWidth),
                    Vals);
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Section 2: sustained bandwidth by access data type");
  for (int Which : {0, 1, 2})
    for (int W : {1, 2, 4})
      runBandwidth(W, Which);
  return Report::get().finish(argv[0]);
}
