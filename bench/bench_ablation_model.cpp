//===-- bench/bench_ablation_model.cpp - substrate-model ablations --------===//
//
// Ablates the modeling decisions DESIGN.md Section 8 fixes, showing that
// each is load-bearing for the paper's shapes:
//
//  A1. GT200 relaxed coalescer — disabling it on the GTX 280 model
//      inflates naive-kernel times and flips Figure 11's
//      "newer GPU benefits less" asymmetry.
//  A2. Naive launch width — launching naive kernels with full 256-thread
//      blocks (instead of one half warp) shrinks the speedups the
//      optimizer can show on occupancy-bound kernels.
//  A3. Partial-camping detection — restricting the detector to the
//      paper's literal full-window rule loses the transpose gains on the
//      GTX 8800 at power-of-two sizes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

// --- A1: relaxed coalescer --------------------------------------------

void runRelaxedCoalescer(bool Relaxed) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  Dev.RelaxedCoalescing = Relaxed;
  Module M;
  double Speedup = 0;
  PerfResult Naive = measureNaive(M, Dev, Algo::MM, 1024);
  CompileOutput Best = compileBest(M, Dev, Algo::MM, 1024);
  if (Naive.Valid && Best.Best) {
    PerfResult Opt = measure(Dev, *Best.Best);
    if (Opt.Valid)
      Speedup = Naive.TimeMs / Opt.TimeMs;
  }
  Report::get().add(strFormat("A1 mm GTX280 relaxed-coalescer=%s",
                              Relaxed ? "on " : "off"),
                    {{"speedup_x", Speedup}});
}

// --- A2: naive launch width -------------------------------------------

/// Speedup of the search winner over naive vv launched \p BlockX wide; 0
/// when a step fails.
double naiveWidthSpeedup(int BlockX) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::VV, 1 << 20, D);
  if (!Naive)
    return 0;
  Naive->launch().BlockDimX = BlockX;
  Naive->launch().GridDimX = Naive->workDomainX() / BlockX;
  PerfResult RN = measure(Dev, *Naive);
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = Dev;
  CompileOutput Out = GC.compile(*Naive, Opt);
  if (!RN.Valid || !Out.Best)
    return 0;
  PerfResult RO = measure(Dev, *Out.Best);
  return RO.Valid ? RN.TimeMs / RO.TimeMs : 0;
}

// --- A3: partial-camping detection -------------------------------------

Simulator &Sim() {
  static Simulator S(DeviceSpec::gtx8800());
  return S;
}

void runPartialCamping(long long N) {
  // Compare the measured camping factor of the compiled transpose on
  // GTX 8800 against the factor of the same kernel without the remap.
  DeviceSpec Dev = DeviceSpec::gtx8800();
  Module M;
  DiagnosticsEngine D;
  double FactorWith = 1, FactorWithout = 1;
  if (KernelFunction *Naive = parseNaive(M, Algo::TP, N, D)) {
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = Dev;
    KernelFunction *With = GC.compileVariant(*Naive, Opt, 1, 1);
    Opt.PartitionElim = false;
    KernelFunction *Without = GC.compileVariant(*Naive, Opt, 1, 1);
    if (With && Without) {
      BufferSet B1, B2;
      PerfResult RW = Sim().runPerformance(*With, B1, D);
      PerfResult RO = Sim().runPerformance(*Without, B2, D);
      if (RW.Valid && RO.Valid) {
        FactorWith = RW.Timing.CampingFactor;
        FactorWithout = RO.Timing.CampingFactor;
      }
    }
  }
  Report::get().add(
      strFormat("A3 tp %lldx%lld GTX8800", N, N),
      {{"camping_eliminated", FactorWith},
       {"camping_without_remap", FactorWithout}});
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle("Ablations of the substrate-model decisions "
                         "(DESIGN.md section 8)");
  for (bool Relaxed : {true, false})
    runRelaxedCoalescer(Relaxed);
  for (int W : {16, 64, 256})
    Report::get().add(strFormat("A2 vv naive-block=%d", W),
                      {{"speedup_x", naiveWidthSpeedup(W)}});
  for (long long N : {2048LL, 4096LL})
    runPartialCamping(N);
  return Report::get().finish(argv[0]);
}
