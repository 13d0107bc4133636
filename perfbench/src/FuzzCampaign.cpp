//===-- perfbench/src/FuzzCampaign.cpp - Differential fuzz throughput -----===//
//
// One pass runs the CI fuzz-smoke windows through runFuzz with one lane
// per core, the vector engine, the scalar cross-check and failure
// reduction on: 500 single-kernel seeds with the static-vs-dynamic check,
// then 300 pipeline seeds and 300 layout seeds. The windows start at seed
// 0, as in CI; the workload seed sets the oracle's input values. Moving
// the windows with the seed would change the generated kernels, whose
// costs are heavy-tailed enough to move a 1100-seed pass by 20%. It simulates whole grids
// functionally under both engines and compiles every variant, with no
// search and no caches, and parallelises across seeds rather than
// candidates — so a change that speeds the search or sampled runs but
// slows functional runs or transforms shows here.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Dataflow.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/KernelGen.h"
#include "parser/Parser.h"
#include "ast/Walk.h"

#include <random>

using namespace gpuc;
using namespace perfbench;

namespace {

struct Window {
  const char *Name;
  unsigned Seeds, SmokeSeeds;
  bool Pipeline, Layout, CheckStatic;
};

const Window Windows[] = {
    {"single", 500, 20, false, false, true},
    {"pipeline", 300, 12, true, false, false},
    {"layout", 300, 12, false, true, false},
};

/// Test-style miscompile: every plain array store after the merge stage
/// becomes an accumulate.
void breakAfterMerge(const char *Stage, KernelFunction &K, bool) {
  if (std::string(Stage) != "merge")
    return;
  forEachStmt(K.body(), [](Stmt *S) {
    if (auto *A = dyn_cast<AssignStmt>(S))
      if (A->op() == AssignOp::Assign && isa<ArrayRef>(A->lhs()))
        A->setOp(AssignOp::AddAssign);
  });
}

FuzzOptions windowOptions(const RunConfig &C, const Window &W) {
  FuzzOptions O;
  O.FirstSeed = 0;
  O.Oracle.InputSeed = C.Seed;
  O.NumSeeds = C.Smoke ? W.SmokeSeeds : W.Seeds;
  O.Jobs = C.Lanes;
  O.ReduceFailures = true;
  O.Pipeline = W.Pipeline;
  O.Layout = W.Layout;
  O.Oracle.CheckStatic = W.CheckStatic;
  O.Oracle.CheckInterp = true;
  O.Oracle.Compile.Interp = InterpBackend::Vector;
  if (C.Inject == "fuzz")
    O.Oracle.Inject = breakAfterMerge;
  return O;
}

std::string summaryKey(const FuzzSummary &S) {
  return std::to_string(S.Cases) + "/" + std::to_string(S.Passed) + "/" +
         std::to_string(S.Duplicates) + "/" + std::to_string(S.Failed) + "/" +
         std::to_string(S.VariantsChecked);
}

/// Generator, parser, oracle and functional-run timings on a seeded sample
/// of each window.
void probeFuzz(const RunConfig &C, Trace &T, Result &R) {
  std::mt19937 Rng(C.Seed);
  const Simulator Sim(DeviceSpec::gtx280());
  for (const Window &W : Windows) {
    const FuzzOptions O = windowOptions(C, W);
    for (int I = 0; I < 6; ++I) {
      const unsigned Seed = O.FirstSeed + Rng() % O.NumSeeds;
      const std::string Key = std::string("probe:") + W.Name + ":" +
                              std::to_string(Seed);
      KernelGen Gen(Seed);
      std::string Source;
      {
        Trace::Scope S(T, "fuzz.gen", -1, Key);
        Source = W.Pipeline ? Gen.generatePipeline().Source
                            : Gen.generate().Source;
      }
      Module M;
      DiagnosticsEngine Diags;
      std::vector<KernelFunction *> Parsed;
      {
        Trace::Scope S(T, "parser.parse", -1, Key);
        Parser Ps(Source, Diags);
        Parsed = Ps.parseProgram(M);
      }
      if (Parsed.empty())
        continue;
      std::vector<const KernelFunction *> Stages(Parsed.begin(), Parsed.end());
      for (const KernelFunction *K : Stages) {
        Trace::Scope S(T, "analysis.dataflow", -1, Key);
        DataflowResult DF = runDataflow(*K);
        (void)DF;
      }
      {
        BufferSet B;
        fillPipelineFuzzInputs(Stages, B, 1);
        Trace::Scope S(T, "sim.functional", -1, Key);
        if (Stages.size() > 1)
          Sim.runPipelineFunctional(Stages, B, Diags);
        else
          Sim.runFunctional(*Stages[0], B, Diags);
      }
      probeSimulation(*Stages[0], T, Key, R);
      {
        Trace::Scope S(T, "core.compile_variant", -1, Key);
        GpuCompiler GC(M, Diags);
        GC.compileVariant(*Stages[0], O.Oracle.Compile, 1, 1);
      }
      OracleResult OR;
      std::string ParseErrs;
      Trace::Scope S(T, "fuzz.oracle", -1, Key);
      if (W.Pipeline)
        checkPipelineSource(Source, O.Oracle, OR, ParseErrs);
      else if (W.Layout)
        checkLayoutSource(Source, O.Oracle, OR, ParseErrs);
      else
        checkKernelSource(Source, O.Oracle, OR, ParseErrs);
    }
  }
}

} // namespace

void perfbench::runFuzzCampaign(const RunConfig &C, Result &R) {
  R.meta("input_seed", std::to_string(C.Seed));
  R.meta("lanes", std::to_string(C.Lanes));

  // Setup: a short campaign over every window, as the warm-up.
  const double SetupS = timedSetup(C.SetupReps, [&] {
    for (const Window &W : Windows) {
      FuzzOptions O = windowOptions(C, W);
      O.FirstSeed = 100000u;
      O.NumSeeds = W.SmokeSeeds;
      (void)runFuzz(O);
    }
  });

  std::map<std::string, Series> PerWindow;
  std::map<std::string, std::string> FirstSummary;
  long long Unique = 0;
  // Only the traced pass records; the passes before it are its baseline.
  Trace T(C.Trace), Off(false);
  Trace *Cur = &Off;
  FuzzSummary Total;
  auto Pass = [&](int) {
    double Wall = 0;
    for (const Window &W : Windows) {
      Trace::Scope S(*Cur, "fuzz.window", -1, W.Name);
      auto T0 = Clock::now();
      FuzzSummary Sum = runFuzz(windowOptions(C, W));
      const double Ms = msSince(T0);
      Wall += Ms;
      PerWindow[W.Name].add(Ms);
      R.Attempted += Sum.Cases;
      R.Failed += Sum.Failed;
      Unique += Sum.Cases - Sum.Duplicates;
      for (const FuzzCase &F : Sum.Failures)
        if (R.Errors.size() < 8)
          R.Errors.push_back(std::string(W.Name) + " seed " +
                             std::to_string(F.Seed) + ": " +
                             failureKindName(F.Failure.FailKind) + " in " +
                             F.Failure.Stage);
      auto [Prev, New] = FirstSummary.emplace(W.Name, summaryKey(Sum));
      if (!New && Prev->second != summaryKey(Sum))
        R.fail(std::string(W.Name) + ": summary differs between passes");
      Total.Cases += Sum.Cases;
      Total.Duplicates += Sum.Duplicates;
      Total.VariantsChecked += Sum.VariantsChecked;
    }
    return Wall;
  };

  if (C.Trace) {
    Series Untraced = timedPasses(0, 1, Pass);
    Total = FuzzSummary();
    Cur = &T;
    auto P0 = Clock::now();
    Pass(1);
    R.Layer["trace.overhead_ms"] = msSince(P0) - Untraced.median();
    const double Cases = Total.Cases;
    R.Layer["fuzz.cases"] = Cases;
    R.Layer["fuzz.dup_share"] = Cases > 0 ? Total.Duplicates / Cases : 0;
    const double UniqueCases = Total.Cases - Total.Duplicates;
    R.Layer["fuzz.variants_per_case"] =
        UniqueCases > 0 ? Total.VariantsChecked / UniqueCases : 0;
    probeFuzz(C, T, R);
    R.Layer["fuzz.gen_ms"] = T.totalMs("fuzz.gen");
    R.Layer["fuzz.oracle_ms"] = T.totalMs("fuzz.oracle");
    R.Layer["parser.parses"] = static_cast<double>(T.count("parser.parse"));
    R.Layer["parser.parse_ms"] = T.totalMs("parser.parse");
    R.Layer["analysis.dataflow_ms"] = T.totalMs("analysis.dataflow");
    R.Layer["sim.functional_ms"] = T.totalMs("sim.functional");
    R.Layer["core.compile_ms_sum"] = T.totalMs("core.compile_variant");
    R.Layer["exec.lanes"] = C.Lanes;
    for (const auto &[Layer, Ms] : T.layerSelfMs())
      R.Layer[Layer + ".self_ms"] = Ms;
    T.writeChromeJson(C.OutDir + "/trace_fuzz_campaign.json");
    return;
  }

  Series Walls = timedPasses(C.Seconds, 1, Pass);
  Series WindowMedians;
  for (const Window &W : Windows) {
    const Series &S = PerWindow[W.Name];
    WindowMedians.add(S.median());
    R.row(std::string("window.") + W.Name + "_ms", "ms", S.median(),
          static_cast<long long>(S.size()));
  }
  const double TotalS = Walls.sum() / 1000.0;
  R.row("fuzz_cases_per_s", "1/s", TotalS > 0 ? Unique / TotalS : 0,
        static_cast<long long>(Walls.size()));

  R.metric("setup_s", "s", SetupS, C.SetupReps);
  R.metric("pass_s", "s", Walls.median() / 1000.0,
           static_cast<long long>(Walls.size()));
  R.metric("op_geomean_ms", "ms", WindowMedians.geomean(),
           static_cast<long long>(Walls.size() * WindowMedians.size()));
}
