//===-- perfbench/src/SearchCold.cpp - Cold design-space searches ---------===//
//
// One pass compiles the eleven programs one after another through
// serve::runCompileJob on gtx280 against a fresh SimCache, as a gpucc run
// without a cache directory does. mm and strsm are bound by simulation,
// demosaic and imregionmax by the transforms, so a sim gain and a core
// gain move different per-program rows.
//
// The timed passes leave the disk tier out: with parallel lanes its stores
// stalled on the filesystem for 0-150 ms per program, which swamped the
// search itself. The traced run times the disk tier through a DiskCache
// subclass, and serve_warm's setup pays it on every cold daemon search.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"
#include "Workloads.h"

#include "analysis/Dataflow.h"
#include "cache/DiskCache.h"
#include "serve/Service.h"
#include "sim/Bytecode.h"
#include "sim/Occupancy.h"
#include "sim/SimCache.h"

#include <random>

using namespace gpuc;
using namespace perfbench;

namespace {

/// The disk tier with its SimCacheBackend side timed: the search reaches
/// it only through these two virtual calls.
class TimedDiskCache : public DiskCache {
public:
  TimedDiskCache(std::string Dir, Trace &T) : DiskCache(std::move(Dir)), T(T) {}

  bool load(uint64_t Key, PerfResult &Out) override {
    auto T0 = Clock::now();
    bool Hit = DiskCache::load(Key, Out);
    note("cache.disk_sim_load", T0, LoadMs, Loads);
    return Hit;
  }
  void store(uint64_t Key, const PerfResult &Result) override {
    auto T0 = Clock::now();
    DiskCache::store(Key, Result);
    note("cache.disk_sim_store", T0, StoreMs, Stores);
  }

  /// Span key for the search in flight (set between searches).
  std::string Program;

  std::mutex Mu;
  double LoadMs = 0, StoreMs = 0;
  uint64_t Loads = 0, Stores = 0;

private:
  void note(const char *Name, Clock::time_point T0, double &Ms,
            uint64_t &Count) {
    auto T1 = Clock::now();
    T.add(Name, T0, T1, -1, Program);
    std::lock_guard<std::mutex> L(Mu);
    Ms += msBetween(T0, T1);
    ++Count;
  }

  Trace &T;
};

/// Per-stage wall sums from the compileVariant stage announcements: the
/// gap before an announcement is that stage's work ("input" covers the
/// clone of the naive kernel).
struct StageClock {
  std::mutex Mu;
  std::map<std::string, double> Ms;

  StageHookFactory factory(Trace &T, int Parent, const std::string &Key) {
    return [this, &T, Parent, Key](DiagnosticsEngine &) -> StageHook {
      auto Last = std::make_shared<Clock::time_point>(Clock::now());
      return [this, &T, Parent, Key, Last](const char *Stage, KernelFunction &,
                                           bool) {
        auto Now = Clock::now();
        T.add(std::string("core.stage.") + Stage, *Last, Now, Parent, Key);
        {
          std::lock_guard<std::mutex> L(Mu);
          Ms[Stage] += msBetween(*Last, Now);
        }
        *Last = Now;
      };
    };
  }
};

std::vector<Program> selectPrograms(const RunConfig &C, std::string &Err) {
  std::vector<Program> All, Picked;
  if (!loadPrograms(C.Root, All, Err))
    return {};
  for (Program &P : All)
    if (!C.Smoke || isSmokeProgram(P))
      Picked.push_back(std::move(P));
  return Picked;
}

/// Seeded Fisher-Yates on raw mt19937 draws (portable across libraries).
/// Every pass runs its own order: a program's time depends on what ran
/// before it (allocator and cache state), so a run covers many orders
/// instead of pinning one per seed.
void shuffle(std::vector<const Program *> &Order, std::mt19937 &Rng) {
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng() % I]);
}

void addSearchStats(const SearchStats &S, Result &R) {
  R.Layer["core.candidates"] += S.Candidates;
  R.Layer["core.compile_ms_sum"] += S.CompileMs;
  R.Layer["core.layout_points"] += S.LayoutPoints;
  R.Layer["core.layout_wins"] += S.LayoutWins;
  R.Layer["analysis.static_pruned"] += S.StaticallyPruned;
  R.Layer["sim.probe_runs"] += S.Probed;
  R.Layer["sim.perf_runs"] += S.Simulated;
  R.Layer["sim.perf_ms_sum"] += S.SimMs;
  R.Layer["sim.scalar_fallbacks"] += static_cast<double>(S.ScalarFallbacks);
  R.Layer["cache.mem_hits"] += static_cast<double>(S.CacheHits);
  R.Layer["cache.mem_misses"] += static_cast<double>(S.CacheMisses);
  R.Layer["exec.crit_path_ms"] += S.CritPathMs;
}

std::vector<const KernelFunction *> candidateKernels(const DirectCompile &D) {
  std::vector<const KernelFunction *> Ks;
  auto Take = [&](const CompileOutput &O) {
    for (const VariantResult &V : O.Variants)
      if (V.Kernel)
        Ks.push_back(V.Kernel);
  };
  if (D.Single.Best)
    Take(D.Single);
  Take(D.Prog.FusedOut);
  for (const CompileOutput &O : D.Prog.StageOuts)
    Take(O);
  return Ks;
}

/// The traced run: untraced passes for the overhead baseline, one traced
/// pass through GpuCompiler directly, then the per-layer probes.
void tracedSearch(const RunConfig &C, const std::vector<Program> &Progs,
                  const std::map<std::string, Winner> &Expected,
                  const Series &UntracedWalls, Result &R) {
  Trace T(true);
  StageClock Stages;
  SimCache Mem;
  std::map<std::string, DirectCompile> Runs;

  auto P0 = Clock::now();
  for (const Program &P : Progs) {
    ++R.Attempted;
    DirectCompile D = compileDirect(
        P, C.Lanes, &Mem, nullptr,
        [&](CompileOptions &Opt, int Span) {
          Opt.HookFactory = Stages.factory(T, Span, P.Name);
        },
        &T);
    auto It = Expected.find(P.Name);
    if (!D.Ok)
      R.fail(P.Name + ": " + D.Error);
    else if (It == Expected.end() || !(D.W == It->second))
      R.fail(P.Name + ": traced winner " + D.W.str());
    Runs.emplace(P.Name, std::move(D));
  }
  const double TracedWall = msSince(P0);
  R.Layer["trace.overhead_ms"] = TracedWall - UntracedWalls.median();

  R.Layer["parser.parses"] = static_cast<double>(T.count("parser.parse"));
  R.Layer["parser.parse_ms"] = T.totalMs("parser.parse");
  R.Layer["core.search_ms"] = T.totalMs("core.search");
  R.Layer["cache.key_ms"] = T.totalMs("cache.key");
  for (const auto &[Stage, Ms] : Stages.Ms)
    R.Layer["core.stage." + Stage + "_ms"] = Ms;

  double Pruned = 0, WallSum = 0, BusySum = 0;
  for (const auto &[Name, D] : Runs) {
    addSearchStats(D.Search, R);
    Pruned += D.Search.Pruned;
    WallSum += D.Search.WallMs;
    BusySum += D.Search.CompileMs + D.Search.SimMs;
  }

  // Probes: dataflow and sampled interpreter runs on the search's own
  // candidate kernels, a search through the timed disk tier and its
  // winner-text entries, and a one-lane repeat.
  TimedDiskCache Disk(C.WorkDir + "/traced", T);
  double Wall1 = 0, WallN = 0, Sim1 = 0, SimN = 0, Self1Total = 0,
         CoveredTotal = 0;
  for (const Program &P : Progs) {
    const DirectCompile &D = Runs.at(P.Name);
    const std::string Key = "probe:" + P.Name;
    for (const KernelFunction *K : candidateKernels(D)) {
      auto A0 = Clock::now();
      DataflowResult DF = runDataflow(*K);
      (void)DF;
      T.add("analysis.dataflow", A0, Clock::now(), -1, Key);
      R.Layer["analysis.dataflow_ms"] += msSince(A0);
    }
    const std::vector<const KernelFunction *> Ks = candidateKernels(D);
    // Every fourth candidate keeps the probe a fraction of the pass.
    for (size_t I = 0; I < Ks.size(); I += 4)
      probeSimulation(*Ks[I], T, Key, R);

    SimCache DiskMem;
    DirectCompile Stored = compileDirect(
        P, C.Lanes, &DiskMem, &Disk,
        [&](CompileOptions &, int) { Disk.Program = Key; });
    if (!Stored.Ok || Stored.Text != D.Text)
      R.fail(P.Name + ": search through the disk tier differs");
    if (!D.Stages.empty()) {
      serve::ServiceContext Ctx;
      CompileOptions Opt;
      serve::optionsFromJob(searchJob(P), Ctx, Opt);
      const uint64_t TextKey = P.Pipeline
                                   ? programCacheKey(D.Stages, Opt)
                                   : compileCacheKey(*D.Stages[0], Opt);
      CachedCompile Entry;
      auto L0 = Clock::now();
      bool Hit = Disk.loadText(TextKey, Entry);
      T.add("cache.disk_text_load", L0, Clock::now(), -1, Key);
      R.Layer["cache.disk_text_load_ms"] += msSince(L0);
      if (Hit) {
        auto S0 = Clock::now();
        Disk.storeText(TextKey, Entry);
        T.add("cache.disk_text_store", S0, Clock::now(), -1, Key);
        R.Layer["cache.disk_text_store_ms"] += msSince(S0);
      } else {
        R.fail(P.Name + ": winner text missing from the disk tier");
      }
    }

    // One lane, fresh caches: the parallel speedup and lane inflation.
    SimCache Mem1;
    auto O0 = Clock::now();
    DirectCompile One = compileDirect(P, 1, &Mem1, nullptr);
    const double OneMs = msSince(O0);
    if (!One.Ok || One.Text != D.Text)
      R.fail(P.Name + ": one-lane search differs from the parallel one");
    Wall1 += One.Search.WallMs;
    WallN += D.Search.WallMs;
    Sim1 += One.Search.SimMs;
    SimN += D.Search.SimMs;
    std::map<std::string, double> PSelf = T.layerSelfMs(P.Name);
    double Covered = 0;
    for (const auto &[Layer, Ms] : PSelf)
      Covered += Ms;
    R.row("coverage." + P.Name, "ratio", OneMs > 0 ? Covered / OneMs : 0, 1);
    if (P.A == Algo::MM && !P.Pipeline)
      R.Layer["trace.coverage_mm1024"] = OneMs > 0 ? Covered / OneMs : 0;
    Self1Total += OneMs;
    CoveredTotal += Covered;
  }
  R.Layer["trace.coverage"] = Self1Total > 0 ? CoveredTotal / Self1Total : 0;

  R.Layer["cache.disk_sim_loads"] = static_cast<double>(Disk.Loads);
  R.Layer["cache.disk_sim_stores"] = static_cast<double>(Disk.Stores);
  R.Layer["cache.disk_sim_load_ms"] = Disk.LoadMs;
  R.Layer["cache.disk_sim_store_ms"] = Disk.StoreMs;
  const DiskCacheStats DS = Disk.stats();
  R.Layer["cache.disk_errors"] =
      static_cast<double>(DS.Corrupt + DS.Quarantined + DS.WriteErrors);
  const double Probed = R.Layer["sim.probe_runs"];
  R.Layer["sim.prune_share"] = Probed > 0 ? Pruned / Probed : 0;
  const double Cands = R.Layer["core.candidates"];
  R.Layer["analysis.static_prune_share"] =
      Cands > 0 ? R.Layer["analysis.static_pruned"] / Cands : 0;
  const double Lookups = R.Layer["cache.mem_hits"] + R.Layer["cache.mem_misses"];
  R.Layer["cache.mem_hit_rate"] =
      Lookups > 0 ? R.Layer["cache.mem_hits"] / Lookups : 0;
  R.Layer["exec.lanes"] = C.Lanes;
  R.Layer["exec.lane_busy_share"] =
      WallSum > 0 ? BusySum / (WallSum * C.Lanes) : 0;
  R.Layer["exec.parallel_speedup"] = WallN > 0 ? Wall1 / WallN : 0;
  R.Layer["exec.sim_inflation"] = Sim1 > 0 ? SimN / Sim1 : 0;

  for (const auto &[Layer, Ms] : T.layerSelfMs())
    R.Layer[Layer + ".self_ms"] = Ms;
  T.writeChromeJson(C.OutDir + "/trace_search_cold.json");
}

} // namespace

void perfbench::probeSimulation(const KernelFunction &K, Trace &T,
                                const std::string &Key, Result &R) {
  const DeviceSpec Dev = DeviceSpec::gtx280();
  Occupancy Occ = computeOccupancy(Dev, K);
  if (Occ.Infeasible)
    return;
  BufferSet Buffers;
  DiagnosticsEngine Diags;
  Interpreter Interp(Dev, K, Buffers, Diags);
  auto Span = [&](const char *Name, Clock::time_point T0) {
    T.add(Name, T0, Clock::now(), -1, Key);
    R.Layer[std::string(Name) + "_ms"] += msSince(T0);
  };
  auto T0 = Clock::now();
  if (!Interp.prepare())
    return;
  Span("sim.prepare", T0);
  T0 = Clock::now();
  std::unique_ptr<BcProgram> BC = compileBytecode(Interp);
  Span("sim.lower", T0);

  // The probe profile's cluster: two consecutive blocks.
  const PerfOptions Probe = PerfOptions::lowerBoundProbe();
  const long long Blocks =
      std::min<long long>(K.launch().numBlocks(), Probe.BlocksPerCluster);
  InterpOptions Opt;
  Opt.CollectStats = true;
  Opt.LoopSampleThreshold = Probe.LoopSampleThreshold;
  Opt.LoopSampleCount = Probe.LoopSampleCount;
  SimStats Warm;
  Opt.Stats = &Warm;
  Interp.runBlocks(0, Blocks, Opt); // lowers lazily; untimed

  SimStats WithMM, NoMM;
  MemoryModel MM(Dev);
  Opt.Stats = &WithMM;
  Opt.MM = &MM;
  T0 = Clock::now();
  Interp.runBlocks(0, Blocks, Opt);
  Span("sim.exec", T0);
  Opt.Stats = &NoMM;
  Opt.MM = nullptr;
  T0 = Clock::now();
  Interp.runBlocks(0, Blocks, Opt);
  Span("sim.exec_nomm", T0);

  T0 = Clock::now();
  TimingBreakdown TB = estimateTime(Dev, WithMM, Occ, K.launch().numBlocks());
  (void)TB;
  Span("sim.timing", T0);
}

void perfbench::runSearchCold(const RunConfig &C, Result &R) {
  std::string Err;
  std::vector<Program> Progs = selectPrograms(C, Err);
  std::map<std::string, Winner> Expected;
  if (Progs.empty() || !loadExpected(C.ExpectedFile, Expected, Err)) {
    R.fail(Err);
    return;
  }
  R.meta("programs", std::to_string(Progs.size()));
  R.meta("lanes", std::to_string(C.Lanes));
  std::mt19937 Rng(C.Seed);
  std::vector<const Program *> Order;
  for (const Program &P : Progs)
    Order.push_back(&P);

  // Setup: a verification pass through GpuCompiler that checks every
  // winner (factors, layout point, modeled ms, text) against the expected
  // file. It doubles as the warm-up.
  const double SetupS = timedSetup(C.SetupReps, [&] {
    for (const Program &P : Progs) {
      SimCache Mem;
      DirectCompile D = compileDirect(P, C.Lanes, &Mem, nullptr);
      ++R.Attempted;
      auto It = Expected.find(P.Name);
      if (!D.Ok)
        R.fail(P.Name + ": " + D.Error);
      else if (It == Expected.end())
        R.fail(P.Name + ": no expected winner");
      else if (!(D.W == It->second))
        R.fail(P.Name + ": winner " + D.W.str() + ", expected " +
               It->second.str());
    }
  });

  std::map<std::string, Series> PerProgram;
  std::map<std::string, std::string> FirstText;
  Series AllOps;
  auto Pass = [&](int) {
    SimCache Mem;
    serve::ServiceContext Ctx;
    Ctx.Mem = &Mem;
    Ctx.Jobs = C.Lanes;
    shuffle(Order, Rng);
    auto P0 = Clock::now();
    for (const Program *PP : Order) {
      const Program &P = *PP;
      auto T0 = Clock::now();
      serve::CompileResult Res = serve::runCompileJob(searchJob(P), Ctx);
      const double Ms = msSince(T0);
      PerProgram[P.Name].add(Ms);
      AllOps.add(Ms);
      ++R.Attempted;
      auto Exp = Expected.find(P.Name);
      auto [Prev, New] = FirstText.emplace(P.Name, Res.Out);
      if (Res.Code != 0)
        R.fail(P.Name + ": exit code " + std::to_string(Res.Code) + ": " +
               Res.Err);
      else if (Exp == Expected.end() ||
               hex64(fnv1a(Res.Out)) != Exp->second.TextFnv)
        R.fail(P.Name + ": winner text differs from the expected winner");
      else if (!New && Prev->second != Res.Out)
        R.fail(P.Name + ": winner text differs between passes");
    }
    return msSince(P0);
  };

  if (C.Trace) {
    Series Untraced = timedPasses(0, C.Smoke ? 1 : 3, Pass);
    tracedSearch(C, Progs, Expected, Untraced, R);
    return;
  }

  Series Walls = timedPasses(C.Seconds, C.Smoke ? 1 : 3, Pass);

  Series ProgramMedians;
  for (const Program &P : Progs) {
    const Series &S = PerProgram[P.Name];
    ProgramMedians.add(S.median());
    R.row("program." + P.Name + "_ms", "ms", S.median(),
          static_cast<long long>(S.size()));

  }
  R.row("search_pass_s", "s", Walls.median() / 1000.0,
        static_cast<long long>(Walls.size()));
  R.row("search_geomean_ms", "ms", ProgramMedians.geomean(),
        static_cast<long long>(AllOps.size()));

  R.metric("setup_s", "s", SetupS, C.SetupReps);
  R.metric("pass_s", "s", Walls.median() / 1000.0,
           static_cast<long long>(Walls.size()));
  R.metric("op_geomean_ms", "ms", ProgramMedians.geomean(),
           static_cast<long long>(AllOps.size()));
}
