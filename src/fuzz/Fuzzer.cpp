//===-- fuzz/Fuzzer.cpp - Differential fuzzing driver ---------------------===//

#include "fuzz/Fuzzer.h"

#include "exec/Parallel.h"
#include "fuzz/KernelGen.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"

#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <unordered_set>

using namespace gpuc;

const char *gpuc::failureKindName(OracleFailure::Kind K) {
  switch (K) {
  case OracleFailure::Kind::CompileError:
    return "compile-error";
  case OracleFailure::Kind::RunError:
    return "run-error";
  case OracleFailure::Kind::Mismatch:
    return "mismatch";
  case OracleFailure::Kind::Race:
    return "race";
  case OracleFailure::Kind::StaticUnsound:
    return "static-unsound";
  case OracleFailure::Kind::InterpDivergence:
    return "interp-divergence";
  }
  return "?";
}

std::string gpuc::failureRecordJson(const FuzzCase &C) {
  const OracleFailure &F = C.Failure;
  std::string S = "{\n";
  S += strFormat("  \"seed\": %u,\n", C.Seed);
  S += strFormat("  \"shape\": \"%s\",\n", jsonEscape(C.Shape).c_str());
  S += strFormat("  \"kind\": \"%s\",\n", failureKindName(F.FailKind));
  S += strFormat("  \"variant\": \"%s\",\n", jsonEscape(F.Variant).c_str());
  S += strFormat("  \"block_n\": %d,\n  \"thread_m\": %d,\n", F.BlockN,
                 F.ThreadM);
  S += strFormat("  \"stage\": \"%s\",\n", jsonEscape(F.Stage).c_str());
  if (F.FailKind == OracleFailure::Kind::Mismatch) {
    S += strFormat("  \"array\": \"%s\",\n", jsonEscape(F.Array).c_str());
    S += strFormat("  \"mismatches\": %lld,\n", F.MismatchCount);
    S += strFormat("  \"first_bad_index\": %lld,\n", F.FirstBadIndex);
    S += strFormat("  \"want\": %.9g,\n  \"got\": %.9g,\n",
                   static_cast<double>(F.Want), static_cast<double>(F.Got));
  }
  S += strFormat("  \"detail\": \"%s\",\n", jsonEscape(F.Detail).c_str());
  S += strFormat("  \"variants_checked\": %d,\n", C.VariantsChecked);
  S += strFormat("  \"reduced_lines\": %d,\n", countCodeLines(C.Reduced));
  S += strFormat("  \"reduce_attempts\": %d,\n  \"reduce_accepted\": %d,\n"
                 "  \"reduce_rounds\": %d,\n",
                 C.Reduce.Attempts, C.Reduce.Accepted, C.Reduce.Rounds);
  S += strFormat("  \"source\": \"%s\",\n", jsonEscape(C.Source).c_str());
  S += strFormat("  \"reduced\": \"%s\"\n", jsonEscape(C.Reduced).c_str());
  S += "}\n";
  return S;
}

namespace {

/// Parses \p Source as one kernel and runs \p Oracle on it. \returns
/// false when the source does not parse (diagnostics in \p ParseErrors).
bool checkOneKernel(const std::string &Source, const OracleOptions &Opt,
                    OracleResult &Result, std::string &ParseErrors,
                    OracleResult (*Oracle)(Module &, const KernelFunction &,
                                           const OracleOptions &)) {
  Module M;
  DiagnosticsEngine Diags;
  Parser P(Source, Diags);
  KernelFunction *K = P.parseKernel(M);
  if (!K || Diags.hasErrors()) {
    ParseErrors = Diags.str();
    return false;
  }
  Result = Oracle(M, *K, Opt);
  return true;
}

} // namespace

bool gpuc::checkKernelSource(const std::string &Source,
                             const OracleOptions &Opt, OracleResult &Result,
                             std::string &ParseErrors) {
  return checkOneKernel(Source, Opt, Result, ParseErrors, runOracle);
}

bool gpuc::checkLayoutSource(const std::string &Source,
                             const OracleOptions &Opt, OracleResult &Result,
                             std::string &ParseErrors) {
  return checkOneKernel(Source, Opt, Result, ParseErrors, runLayoutOracle);
}

bool gpuc::checkPipelineSource(const std::string &Source,
                               const OracleOptions &Opt, OracleResult &Result,
                               std::string &ParseErrors) {
  Module M;
  DiagnosticsEngine Diags;
  Parser P(Source, Diags);
  std::vector<KernelFunction *> Stages = P.parseProgram(M);
  if (Stages.size() < 2 || Diags.hasErrors()) {
    ParseErrors = Diags.str();
    if (Stages.size() < 2 && ParseErrors.empty())
      ParseErrors = "expected a multi-kernel pipeline\n";
    return false;
  }
  std::vector<const KernelFunction *> CStages(Stages.begin(), Stages.end());
  Result = runPipelineOracle(M, CStages, Opt);
  return true;
}

namespace {

/// Minimizes a failing case under a predicate pinned to the original
/// failure signature (kind + blamed stage), so the reducer cannot wander
/// onto an unrelated bug while shrinking.
std::string reduceCase(const FuzzCase &C, const OracleOptions &Opt,
                       bool Layout, ReduceStats &Stats) {
  OracleFailure::Kind Kind = C.Failure.FailKind;
  std::string Stage = C.Failure.Stage;
  FailurePredicate Pinned = [&](const std::string &Cand) {
    OracleResult R;
    std::string Errs;
    bool Parsed = Layout ? checkLayoutSource(Cand, Opt, R, Errs)
                         : checkKernelSource(Cand, Opt, R, Errs);
    if (!Parsed)
      return false;
    for (const OracleFailure &F : R.Failures)
      if (F.FailKind == Kind && F.Stage == Stage)
        return true;
    return false;
  };
  return reduceKernelSource(C.Source, Pinned, &Stats);
}

void writeArtifacts(const std::string &OutDir, const FuzzCase &C) {
  std::error_code EC;
  std::filesystem::create_directories(OutDir, EC);
  std::string Base = OutDir + "/seed" + std::to_string(C.Seed);
  std::ofstream(Base + ".cu") << (C.Reduced.empty() ? C.Source : C.Reduced);
  std::ofstream(Base + ".json") << failureRecordJson(C);
}

/// What one seed generates: a kernel, or a chain under --pipeline.
struct GeneratedCase {
  std::string Shape;
  std::string Source;
  uint64_t StructureHash = 0;
};

GeneratedCase generateCase(unsigned Seed, bool Pipeline) {
  KernelGen Gen(Seed);
  if (Pipeline) {
    GeneratedPipeline GP = Gen.generatePipeline();
    return {std::move(GP.Shape), std::move(GP.Source), GP.StructureHash};
  }
  GeneratedKernel GK = Gen.generate();
  return {std::move(GK.Shape), std::move(GK.Source), GK.StructureHash};
}

} // namespace

FuzzSummary gpuc::runFuzz(const FuzzOptions &Opt, std::ostream *Progress) {
  FuzzSummary Sum;
  size_t N = Opt.NumSeeds;
  std::vector<FuzzCase> Cases(N);
  const unsigned Lanes =
      Opt.Jobs <= 0 ? defaultConcurrency() : static_cast<unsigned>(Opt.Jobs);

  // Generation is seed-deterministic, and cheap next to the oracle, so it
  // runs first and in seed order: a seed whose kernel a lower seed already
  // generated is a Duplicate. So the seed that owns a kernel, and with it
  // the inputs its oracle draws, is the same at every lane count.
  std::vector<size_t> Owners;
  std::unordered_set<uint64_t> Seen;
  for (size_t I = 0; I < N; ++I) {
    FuzzCase &C = Cases[I];
    C.Seed = Opt.FirstSeed + static_cast<unsigned>(I);
    GeneratedCase G = generateCase(C.Seed, Opt.Pipeline);
    C.Shape = std::move(G.Shape);
    if (Seen.insert(G.StructureHash).second)
      Owners.push_back(I);
    else
      C.St = FuzzCase::Status::Duplicate;
  }

  // The oracle pass regenerates each owner's source rather than holding
  // every seed's.
  std::mutex ProgressMu;
  parallelFor(Lanes, Owners.size(), [&](size_t J) {
    FuzzCase &C = Cases[Owners[J]];
    const std::string Source = generateCase(C.Seed, Opt.Pipeline).Source;

    // Per-case oracle config: remix the input seed so different kernels
    // see different data, deterministically in the case seed.
    OracleOptions OO = Opt.Oracle;
    OO.InputSeed = Opt.Oracle.InputSeed ^ (C.Seed * 2654435761u + 1u);

    // The generator emits printed source; parsing it back is itself the
    // Printer->Parser round-trip check (printNaiveProgram->parseProgram
    // for pipelines).
    OracleResult R;
    std::string ParseErrs;
    bool Parsed = Opt.Pipeline ? checkPipelineSource(Source, OO, R, ParseErrs)
                  : Opt.Layout ? checkLayoutSource(Source, OO, R, ParseErrs)
                               : checkKernelSource(Source, OO, R, ParseErrs);
    if (!Parsed) {
      C.St = FuzzCase::Status::Failed;
      C.Source = Source;
      C.Failure.FailKind = OracleFailure::Kind::CompileError;
      C.Failure.Variant = "parse";
      C.Failure.Stage = "input";
      C.Failure.Detail = "generated source failed to re-parse:\n" + ParseErrs;
      C.Reduced = Source;
      return;
    }
    C.VariantsChecked = R.VariantsChecked;
    C.VariantsRun = R.VariantsRun;
    if (R.Passed) {
      C.St = FuzzCase::Status::Passed;
      if (Progress) {
        std::lock_guard<std::mutex> Lock(ProgressMu);
        *Progress << strFormat("seed %u: ok (%s, %d variants)\n", C.Seed,
                               C.Shape.c_str(), R.VariantsChecked);
      }
      return;
    }

    C.St = FuzzCase::Status::Failed;
    C.Source = Source;
    C.Failure = R.Failures.front();
    // The reducer's mutations are single-kernel; pipeline repros are
    // already small (2-3 short stages) and ship unminimized.
    C.Reduced = Opt.ReduceFailures && !Opt.Pipeline
                    ? reduceCase(C, OO, Opt.Layout, C.Reduce)
                    : C.Source;
    if (!Opt.OutDir.empty())
      writeArtifacts(Opt.OutDir, C);
    if (Progress) {
      std::lock_guard<std::mutex> Lock(ProgressMu);
      *Progress << strFormat("seed %u: FAIL %s at stage '%s' (%s)\n", C.Seed,
                             failureKindName(C.Failure.FailKind),
                             C.Failure.Stage.c_str(), C.Shape.c_str());
    }
  });

  for (FuzzCase &C : Cases) {
    ++Sum.Cases;
    switch (C.St) {
    case FuzzCase::Status::Passed:
      ++Sum.Passed;
      break;
    case FuzzCase::Status::Duplicate:
      ++Sum.Duplicates;
      break;
    case FuzzCase::Status::Failed:
      ++Sum.Failed;
      break;
    }
    if (C.St != FuzzCase::Status::Duplicate)
      ++Sum.ShapeCounts[C.Shape];
    Sum.VariantsChecked += C.VariantsChecked;
    Sum.VariantsRun += C.VariantsRun;
    if (C.St == FuzzCase::Status::Failed)
      Sum.Failures.push_back(std::move(C));
  }
  return Sum;
}
