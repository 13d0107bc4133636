//===-- bench/bench_interp.cpp - Interpreter engine speedup ---------------===//
//
// Measures the two interpreter engines (DESIGN.md section 14) on the
// simulator's actual critical path: the mm design-space search at N=1024
// on GTX 280 (the Figure 10 grid), run serially with no memo cache so
// every candidate's sampled performance simulation is paid in full, once
// under the scalar AST walk and once under the lane-vectorized bytecode
// executor. A functional whole-grid run of naive mm rounds out the
// picture (the correctness path gpucc --validate and the fuzzer take).
//
// The acceptance gates are structural, not just fast: both engines must
// select the same winning variant with byte-identical printed text and
// the exact same simulated time — the speedup must come for free.
// speedup_* metas feed the CI threshold check (>= 2x on shared runners;
// >= 4x is the local expectation).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ast/Printer.h"
#include "parser/Parser.h"
#include "support/Timer.h"

using namespace gpuc;
using namespace gpuc::bench;

namespace {

constexpr long long SearchN = 1024;
constexpr long long FunctionalN = 256;

struct EngineResult {
  std::string Name;
  double SearchWallMs = 0;
  double FunctionalWallMs = 0;
  int BlockN = 0, ThreadM = 0;
  double BestMs = 0;
  std::string Text;
  SearchStats Stats;
};

std::vector<EngineResult> Results;

void runEngine(const char *Name, InterpBackend B) {
  EngineResult R;
  R.Name = Name;

  // Search critical path: serial, uncached, so wall time is the sum of
  // every candidate's compile + sampled simulation.
  {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::MM, SearchN, D);
    if (Naive) {
      GpuCompiler GC(M, D);
      CompileOptions Opt;
      Opt.Device = DeviceSpec::gtx280();
      Opt.Jobs = 1;
      Opt.Interp = B;
      WallTimer T;
      CompileOutput Out = GC.compile(*Naive, Opt);
      R.SearchWallMs = T.elapsedMs();
      R.BlockN = Out.BestVariant.BlockMergeN;
      R.ThreadM = Out.BestVariant.ThreadMergeM;
      R.BestMs = Out.BestVariant.Perf.TimeMs;
      if (Out.Best)
        R.Text = printKernel(*Out.Best);
      R.Stats = Out.Search;
    }
  }

  // Functional whole-grid run (every thread, every iteration).
  {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::MM, FunctionalN, D);
    if (Naive) {
      Simulator Sim(DeviceSpec::gtx280());
      Sim.setInterpBackend(B);
      BufferSet Buf;
      initInputs(Algo::MM, FunctionalN, Buf);
      WallTimer T;
      Sim.runFunctional(*Naive, Buf, D);
      R.FunctionalWallMs = T.elapsedMs();
    }
  }

  Results.push_back(R);
}

const EngineResult *find(const char *Name) {
  for (const EngineResult &R : Results)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Interpreter engines: mm 1024 search + mm 256 functional, GTX 280");
  runEngine("scalar", InterpBackend::Scalar);
  runEngine("vector", InterpBackend::Vector);

  Report &Rep = Report::get();
  for (const EngineResult &R : Results)
    Rep.add(strFormat("%-8s b%-2d t%-2d", R.Name.c_str(), R.BlockN,
                      R.ThreadM),
            {{"search_wall_ms", R.SearchWallMs},
             {"sim_ms_sum", R.Stats.SimMs},
             {"compile_ms_sum", R.Stats.CompileMs},
             {"functional_wall_ms", R.FunctionalWallMs},
             {"best_ms", R.BestMs},
             {"simulated", static_cast<double>(R.Stats.Simulated)},
             {"probed", static_cast<double>(R.Stats.Probed)}});

  const EngineResult *Sc = find("scalar");
  const EngineResult *Vec = find("vector");
  bool SameWinner = false;
  if (Sc && Vec) {
    SameWinner = Sc->BlockN == Vec->BlockN && Sc->ThreadM == Vec->ThreadM &&
                 !Sc->Text.empty() && Sc->Text == Vec->Text &&
                 Sc->BestMs == Vec->BestMs;
    if (Vec->SearchWallMs > 0)
      Rep.addMeta("speedup_search_wall",
                  Sc->SearchWallMs / Vec->SearchWallMs);
    if (Vec->Stats.SimMs > 0)
      Rep.addMeta("speedup_sim", Sc->Stats.SimMs / Vec->Stats.SimMs);
    if (Vec->FunctionalWallMs > 0)
      Rep.addMeta("speedup_functional",
                  Sc->FunctionalWallMs / Vec->FunctionalWallMs);
    Rep.addMeta("same_winner", SameWinner ? 1.0 : 0.0);
    Rep.addMeta("best_ms_identical", Sc->BestMs == Vec->BestMs ? 1.0 : 0.0);
    Rep.addMeta("winner", strFormat("b%d t%d", Vec->BlockN, Vec->ThreadM));
  }
  Rep.addNote("serial uncached search: wall time = sum of all candidate "
              "compiles + sampled simulations; sim_ms_sum isolates the "
              "interpreter's share");
  Rep.addNote("identical winner text and best_ms across engines is an "
              "acceptance gate, not an observation");

  return Rep.finish(argv[0], SameWinner ? 0 : 1);
}
