//===-- bench/bench_search.cpp - Design-space search cost -----------------===//
//
// Measures the compiler's own hottest path: the Section 4 empirical
// search over the mm design space (the Figure 10 grid, 4x5 merge-factor
// candidates at N=1024 on GTX 280), end to end through
// GpuCompiler::compile. Six configurations:
//
//   exhaustive_jobs1   every feasible variant fully simulated, serially,
//                      with the original fixed-count block sampling and no
//                      memo cache -- the compiler's complete pre-
//                      parallel-search behaviour, reproduced exactly
//   pruned_jobs1       lower-bound pruning + work-normalized sampling,
//                      serial
//   pruned_jobs8       lower-bound pruning + work-normalized sampling,
//                      8 search lanes
//   pruned_jobs8_warm  8 lanes against a pre-warmed in-memory SimCache
//                      (the repeat-compilation case the staged benches hit)
//   disk_cold_proc1    8 lanes writing through to a fresh on-disk cache
//                      (the first gpucc process on a machine)
//   disk_warm_proc2    a second "process" -- fresh DiskCache instance and
//                      fresh memory tier over the same directory -- served
//                      from disk
//
// All six must select the same winning variant, and the two disk configs
// must emit byte-identical winner text; the table records the wall-clock
// ratios, the search counters, and the disk-cache hit rate.
//
// Timing columns: wall_ms is end-to-end; crit_path_ms is the longest
// single-candidate compile+simulate chain (the number to set against
// wall_ms); compile_ms/sim_ms are per-lane times SUMMED across lanes, an
// aggregate work measure that legitimately exceeds wall_ms whenever lanes
// overlap.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ast/Printer.h"
#include "cache/DiskCache.h"
#include "parser/Parser.h"
#include "support/Timer.h"

#include <filesystem>

using namespace gpuc;
using namespace gpuc::bench;

namespace {

constexpr long long MmN = 1024;

struct ConfigResult {
  std::string Name;
  double WallMs = 0;
  int BlockN = 0, ThreadM = 0;
  double BestMs = 0;
  std::string Text;
  SearchStats Stats;
  DiskCacheStats Disk;
  bool UsedDisk = false;
};

std::vector<ConfigResult> Results;
SimCache SharedCache; // for the warm-cache configuration

/// The directory the two disk configurations share (one "machine").
std::string &diskDir() {
  static std::string Dir = DiskCache::makeTempDir("gpuc-bench-search");
  return Dir;
}

CompileOutput runSearch(int Jobs, bool Exhaustive, SimCache *Cache,
                        DiskCache *Disk, double &WallMs) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, MmN, D);
  CompileOutput Out;
  if (!Naive)
    return Out;
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = DeviceSpec::gtx280();
  Opt.Jobs = Jobs;
  Opt.ExhaustiveSearch = Exhaustive;
  Opt.Cache = Cache;
  Opt.Disk = Disk;
  // The exhaustive baseline reproduces the seed compiler's search cost
  // exactly: fixed-count block sampling (no work normalization).
  if (Exhaustive)
    Opt.Perf.WorkPerBlockRef = 0;
  WallTimer T;
  Out = GC.compile(*Naive, Opt);
  WallMs = T.elapsedMs();
  return Out;
}

void runConfig(const char *Name, int Jobs, bool Exhaustive, bool Warm,
               bool UseDisk) {
  if (Warm) { // prime the shared cache with an unmeasured run
    double Ignored;
    runSearch(Jobs, Exhaustive, &SharedCache, nullptr, Ignored);
  }
  ConfigResult R;
  R.Name = Name;
  // Each disk config opens its own DiskCache over the shared directory,
  // modelling a separate process attaching to the machine's cache.
  std::unique_ptr<DiskCache> Disk;
  if (UseDisk)
    Disk = std::make_unique<DiskCache>(diskDir());
  CompileOutput Out = runSearch(Jobs, Exhaustive,
                                Warm ? &SharedCache : nullptr, Disk.get(),
                                R.WallMs);
  R.BlockN = Out.BestVariant.BlockMergeN;
  R.ThreadM = Out.BestVariant.ThreadMergeM;
  R.BestMs = Out.BestVariant.Perf.TimeMs;
  if (Out.Best)
    R.Text = printKernel(*Out.Best);
  R.Stats = Out.Search;
  if (Disk) {
    R.Disk = Disk->stats();
    R.UsedDisk = true;
  }
  Results.push_back(R);

  // Record the explored grid once, from the full parallel config.
  if (std::string(Name) == "pruned_jobs8")
    for (const VariantResult &V : Out.Variants) {
      std::string Status = V.Feasible ? "measured"
                           : V.LimitedBy ? "infeasible"
                           : V.Pruned    ? "pruned"
                                         : "failed";
      Report::get().add(
          strFormat("variant b%-2d t%-2d  %-10s", V.BlockMergeN,
                    V.ThreadMergeM, Status.c_str()),
          {{"time_ms", V.Feasible ? V.Perf.TimeMs : 0.0},
           {"lower_bound_ms", V.LowerBoundMs}});
    }
}

/// Runs every configuration in order; the warm configs must come after
/// the cold ones they depend on (pruned_jobs8_warm primes the in-memory
/// cache itself; disk_warm_proc2 reads what disk_cold_proc1 wrote).
void runAll() {
  Report::get().setTitle(
      "Design-space search cost: mm 1024 (Figure 10 grid) on GTX 280");
  struct Cfg {
    const char *Name;
    int Jobs;
    bool Exhaustive, Warm, Disk;
  };
  static const Cfg Cfgs[] = {
      {"exhaustive_jobs1", 1, true, false, false},
      {"pruned_jobs1", 1, false, false, false},
      {"pruned_jobs8", 8, false, false, false},
      {"pruned_jobs8_warm", 8, false, true, false},
      {"disk_cold_proc1", 8, false, false, true},
      {"disk_warm_proc2", 8, false, false, true},
  };
  for (const Cfg &C : Cfgs)
    runConfig(C.Name, C.Jobs, C.Exhaustive, C.Warm, C.Disk);
}

const ConfigResult *find(const char *Name) {
  for (const ConfigResult &R : Results)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

/// Static-prune effectiveness: an mm-shaped kernel whose store is a
/// proven violation (the abstract-interpretation pre-filter rejects
/// every candidate before probe/simulation), searched with the filter
/// off and on. Kept out of the main Results table: its winner is the
/// unit-probe fallback, not the mm grid's.
CompileOutput runOobSearch(bool StaticPrune, double &WallMs) {
  static const char *Src =
      "#pragma gpuc output(c)\n"
      "#pragma gpuc bind(w=256)\n"
      "#pragma gpuc domain(256,256)\n"
      "__global__ void mmoob(float a[256][256], float b[256][256],\n"
      "                      float c[256][256], int w) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < w; i = i + 1) {\n"
      "    s += a[idy][i] * b[i][idx];\n"
      "  }\n"
      "  c[idy][idx + 256] = s;\n"
      "}\n";
  Module M;
  DiagnosticsEngine D;
  Parser P(Src, D);
  KernelFunction *K = P.parseKernel(M);
  CompileOutput Out;
  if (!K)
    return Out;
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = DeviceSpec::gtx280();
  Opt.Jobs = 8;
  Opt.StaticPrune = StaticPrune;
  WallTimer T;
  Out = GC.compile(*K, Opt);
  WallMs = T.elapsedMs();
  return Out;
}

} // namespace

int main(int, char **argv) {
  runAll();

  Report &Rep = Report::get();
  bool SameWinner = true;
  for (const ConfigResult &R : Results) {
    std::vector<std::pair<std::string, double>> Cols = {
        {"wall_ms", R.WallMs},
        {"crit_path_ms", R.Stats.CritPathMs},
        {"compile_ms_sum", R.Stats.CompileMs},
        {"sim_ms_sum", R.Stats.SimMs},
        {"simulated", static_cast<double>(R.Stats.Simulated)},
        {"probed", static_cast<double>(R.Stats.Probed)},
        {"pruned", static_cast<double>(R.Stats.Pruned)},
        {"statically_pruned",
         static_cast<double>(R.Stats.StaticallyPruned)},
        {"cache_hits", static_cast<double>(R.Stats.CacheHits)}};
    if (R.UsedDisk)
      Cols.push_back({"disk_hits", static_cast<double>(R.Stats.DiskHits)});
    Rep.add(strFormat("%-18s b%-2d t%-2d", R.Name.c_str(), R.BlockN,
                      R.ThreadM),
            Cols);
    if (R.BlockN != Results.front().BlockN ||
        R.ThreadM != Results.front().ThreadM)
      SameWinner = false;
  }
  Rep.addMeta("same_winner_all_configs", SameWinner ? 1.0 : 0.0);

  const ConfigResult *Ex1 = find("exhaustive_jobs1");
  const ConfigResult *Pr1 = find("pruned_jobs1");
  const ConfigResult *Pr8 = find("pruned_jobs8");
  const ConfigResult *Warm = find("pruned_jobs8_warm");
  const ConfigResult *DiskCold = find("disk_cold_proc1");
  const ConfigResult *DiskWarm = find("disk_warm_proc2");
  if (Ex1 && Pr8 && Pr8->WallMs > 0)
    Rep.addMeta("speedup_jobs8_vs_jobs1", Ex1->WallMs / Pr8->WallMs);
  if (Ex1 && Pr1 && Pr1->WallMs > 0)
    Rep.addMeta("speedup_pruning_serial", Ex1->WallMs / Pr1->WallMs);
  if (Ex1 && Warm && Warm->WallMs > 0)
    Rep.addMeta("speedup_warm_cache", Ex1->WallMs / Warm->WallMs);
  if (Pr8) {
    Rep.addMeta("search_wall_ms_jobs8", Pr8->WallMs);
    Rep.addMeta("search_crit_path_ms_jobs8", Pr8->Stats.CritPathMs);
    Rep.addMeta("search_jobs", static_cast<double>(Pr8->Stats.Jobs));
  }
  if (Warm) {
    const double Lookups = static_cast<double>(Warm->Stats.CacheHits +
                                               Warm->Stats.CacheMisses);
    Rep.addMeta("warm_cache_hit_rate",
                Lookups > 0 ? Warm->Stats.CacheHits / Lookups : 0.0);
  }

  // The persistent-cache acceptance gates: the second process must be
  // served almost entirely from disk and must reproduce the cold winner
  // text byte for byte.
  bool DiskTextIdentical = true;
  if (DiskCold && DiskWarm) {
    DiskTextIdentical = !DiskCold->Text.empty() &&
                        DiskCold->Text == DiskWarm->Text;
    Rep.addMeta("disk_warm_hit_rate", DiskWarm->Disk.hitRate());
    Rep.addMeta("disk_warm_text_identical", DiskTextIdentical ? 1.0 : 0.0);
    if (Ex1 && DiskWarm->WallMs > 0)
      Rep.addMeta("speedup_disk_warm", Ex1->WallMs / DiskWarm->WallMs);
  }
  Rep.addMeta("winner",
              Results.empty()
                  ? std::string("none")
                  : strFormat("b%d t%d", Results.front().BlockN,
                              Results.front().ThreadM));
  // Static-prune effectiveness on a proven-out-of-bounds kernel: how
  // many variants the pre-filter rejects and how much lane-summed
  // simulation time that avoids.
  {
    double OffMs = 0, OnMs = 0;
    CompileOutput Off = runOobSearch(/*StaticPrune=*/false, OffMs);
    CompileOutput On = runOobSearch(/*StaticPrune=*/true, OnMs);
    for (const auto &[Name, Out, Wall] :
         {std::tuple<const char *, const CompileOutput &, double>(
              "static_prune_off", Off, OffMs),
          std::tuple<const char *, const CompileOutput &, double>(
              "static_prune_on", On, OnMs)})
      Rep.add(strFormat("%-18s (oob mm)", Name),
              {{"wall_ms", Wall},
               {"sim_ms_sum", Out.Search.SimMs},
               {"simulated", static_cast<double>(Out.Search.Simulated)},
               {"statically_pruned",
                static_cast<double>(Out.Search.StaticallyPruned)}});
    Rep.addMeta("static_prune_variants_rejected",
                static_cast<double>(On.Search.StaticallyPruned));
    Rep.addMeta("static_prune_sim_ms_saved",
                Off.Search.SimMs - On.Search.SimMs);
  }

  Rep.addNote("jobs1 exhaustive reproduces the pre-parallel-search "
              "compiler; identical winner is required across all configs");
  Rep.addNote("compile_ms_sum / sim_ms_sum are lane-summed aggregates and "
              "exceed wall_ms when lanes overlap; crit_path_ms is the "
              "longest single-candidate chain");

  std::error_code EC;
  std::filesystem::remove_all(diskDir(), EC);
  return Rep.finish(argv[0], SameWinner && DiskTextIdentical ? 0 : 1);
}
