//===-- bench/bench_fig14_rd_vec.cpp - Figure 14 reproduction -------------===//
//
// Figure 14: effect of data vectorization on the complex-number reduction
// (CublasScasum analog). The naive kernel reads A[2*idx] and A[2*idx+1];
// with vectorization the pair becomes one coalesced float2 load straight
// into registers, without it the compiler must stage through shared
// memory, costing extra shared accesses and bandwidth.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

/// Simulated run of the crd search winner at \p N; invalid when the
/// kernel fails to parse or compile.
PerfResult crdWinner(const DeviceSpec &Dev, long long N, bool WithVec) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::CRD, N, D);
  if (!Naive)
    return PerfResult();
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = Dev;
  Opt.Vectorize = WithVec;
  CompileOutput Out = GC.compile(*Naive, Opt);
  if (!Out.Best)
    return PerfResult();
  return measure(Dev, *Out.Best);
}

void runCrdVec(long long N, bool WithVec) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  double Ms = 0, SharedAccesses = 0;
  PerfResult R = crdWinner(Dev, N, WithVec);
  if (R.Valid) {
    Ms = R.TimeMs;
    SharedAccesses = R.Stats.SharedAccessHalfWarps;
  }
  Report::get().add(
      strFormat("crd n=%-9lld %s", N,
                WithVec ? "optimized" : "optimized_wo_vec"),
      {{"ms", Ms},
       {"gbps_effective",
        Ms > 0 ? algoUsefulBytes(Algo::CRD, N) / (Ms * 1e6) : 0},
       {"shared_halfwarp_accesses", SharedAccesses}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Figure 14: complex reduction with and without vectorization");
  for (long long N : {1 << 20, 1 << 22, 1 << 24})
    for (bool Vec : {false, true})
      runCrdVec(N, Vec);
  return Report::get().finish(argv[0]);
}
