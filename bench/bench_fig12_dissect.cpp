//===-- bench/bench_fig12_dissect.cpp - Figure 12 reproduction ------------===//
//
// Figure 12: geometric-mean contribution of each compilation step across
// all applications, on both GPUs: naive -> +coalescing -> +thread/block
// merge -> +prefetch -> +partition-camping elimination -> +affine layout
// search. The paper finds thread/thread-block merge dominates and
// prefetching contributes little (registers are already spent). The
// +partition column applies the paper's one-shot camping fix at the
// winner's merge factors; the +layout column is the full affine family
// search (DESIGN.md section 16) and can only hold or improve on
// +partition, since the paper's fixes are family points.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

struct StageDef {
  const char *Name;
  CompileOptions Opt; // Device is patched in
  bool UseBestFactors;
};

std::vector<StageDef> stages() {
  CompileOptions Coal;
  Coal.Merge = Coal.Prefetch = Coal.PartitionElim = false;
  CompileOptions Merge = Coal;
  Merge.Merge = true;
  CompileOptions Pref = Merge;
  Pref.Prefetch = true;
  CompileOptions Full;
  return {{"naive", Coal, false},
          {"+coalescing", Coal, false},
          {"+merge", Merge, true},
          {"+prefetch", Pref, true},
          {"+partition", Full, true},
          {"+layout", Full, true}};
}

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

// Speedup-over-naive per stage, collected across algorithms.
std::map<std::string, std::vector<double>> StageSpeedups[2];

// Shared across the whole binary: the search's full-profile runs and the
// per-stage measurements below repeatedly hit structurally identical
// kernels (the "+partition" stage IS the search winner), so the staged
// dissection stops re-simulating them.
SimCache Cache;

void runDissect(Algo A, bool Gtx280) {
  DeviceSpec Dev = Gtx280 ? DeviceSpec::gtx280() : DeviceSpec::gtx8800();
  long long N = benchSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  if (!Naive)
    return;
  PerfResult RN = measure(Dev, *Naive, &Cache);
  if (!RN.Valid)
    return;
  GpuCompiler GC(M, D);
  // Pick merge factors from the full pipeline's empirical search once.
  CompileOptions FullOpt;
  FullOpt.Device = Dev;
  FullOpt.Cache = &Cache;
  CompileOutput Best = GC.compile(*Naive, FullOpt);
  int BN = Best.BestVariant.BlockMergeN;
  int TM = Best.BestVariant.ThreadMergeM;
  for (const StageDef &St : stages()) {
    double Speedup = 1.0;
    if (std::string(St.Name) == "+layout") {
      // The layout column is the full search's winner: the affine
      // family (layout dimension included) scored by the same model.
      if (Best.BestVariant.Feasible && Best.BestVariant.Perf.TimeMs > 0)
        Speedup = RN.TimeMs / Best.BestVariant.Perf.TimeMs;
    } else if (std::string(St.Name) != "naive") {
      CompileOptions Opt = St.Opt;
      Opt.Device = Dev;
      KernelFunction *V = GC.compileVariant(
          *Naive, Opt, St.UseBestFactors ? BN : 1,
          St.UseBestFactors ? TM : 1);
      if (V) {
        PerfResult R = measure(Dev, *V, &Cache);
        if (R.Valid)
          Speedup = RN.TimeMs / R.TimeMs;
      }
    }
    StageSpeedups[Gtx280 ? 1 : 0][St.Name].push_back(Speedup);
  }
}

} // namespace

int main(int, char **argv) {
  for (bool Gtx280 : {false, true})
    for (Algo A : table1Algos())
      runDissect(A, Gtx280);
  Report::get().setTitle("Figure 12: per-step dissection "
                         "(geomean speedup over naive, all algorithms)");
  for (int Dev = 0; Dev < 2; ++Dev) {
    const char *DevName = Dev ? "GTX280" : "GTX8800";
    for (const StageDef &St : stages()) {
      auto It = StageSpeedups[Dev].find(St.Name);
      if (It == StageSpeedups[Dev].end())
        continue;
      Report::get().add(strFormat("%-8s %-12s", DevName, St.Name),
                        {{"geomean_speedup_x", geomean(It->second)}});
    }
  }
  Report::get().addNote("paper: merge dominates; prefetch contributes "
                        "little; partition elimination matters more on "
                        "GTX280");
  Report::get().addNote("+layout is the design-space winner with the "
                        "affine layout dimension enabled; it can only "
                        "hold or improve on +partition");
  const double Lookups =
      static_cast<double>(Cache.hits() + Cache.misses());
  Report::get().addMeta("sim_cache_hits", static_cast<double>(Cache.hits()));
  Report::get().addMeta("sim_cache_misses",
                        static_cast<double>(Cache.misses()));
  Report::get().addMeta("sim_cache_hit_rate",
                        Lookups > 0 ? Cache.hits() / Lookups : 0.0);
  return Report::get().finish(argv[0]);
}
