//===-- fuzz/Fuzzer.h - Differential fuzzing driver -------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed-parallel fuzzing loop: each seed deterministically generates a
/// naive kernel (fuzz/KernelGen), which is structurally deduplicated
/// against the kernels lower seeds generate (ast/Hash) before any oracle
/// runs. Each remaining kernel round-trips through the parser, and every
/// optimization variant is differentially validated against the naive
/// semantics (fuzz/Oracle). Failing cases are minimized with
/// fuzz/Reducer under a predicate pinned to the original failure signature
/// (kind + blamed stage), and written out as a replayable .cu repro plus a
/// machine-readable .json failure record.
///
/// Seeds run concurrently under exec/Parallel's parallelFor; results are
/// keyed by seed index and reduced after the join, so a run's summary is
/// identical for any --jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_FUZZ_FUZZER_H
#define GPUC_FUZZ_FUZZER_H

#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace gpuc {

struct FuzzOptions {
  /// Seed range: [FirstSeed, FirstSeed + NumSeeds).
  unsigned FirstSeed = 0;
  unsigned NumSeeds = 100;
  /// Concurrency across seeds (0 = hardware). Each case compiles and
  /// simulates serially inside its lane.
  int Jobs = 0;
  /// Minimize failing cases before reporting them.
  bool ReduceFailures = true;
  /// Generate multi-kernel pipelines (fuzz/KernelGen chain templates) and
  /// run the fusion-differential oracle instead of the single-kernel one.
  /// The reducer only understands single kernels, so pipeline repros are
  /// reported unminimized.
  bool Pipeline = false;
  /// Run the layout-differential oracle (fuzz/Oracle runLayoutOracle)
  /// instead of the full design-space one: every affine layout family
  /// point is exercised against the naive kernel — pure block-id remaps
  /// bit-for-bit, compiled family points within tolerance, all
  /// scalar-vs-vector cross-checked. Mutually exclusive with Pipeline.
  bool Layout = false;
  /// Directory for seed<N>.cu / seed<N>.json failure artifacts; empty
  /// disables writing.
  std::string OutDir;
  /// Oracle configuration. InputSeed is remixed per seed for input
  /// diversity; Jobs is owned by the oracle (see OracleOptions).
  OracleOptions Oracle;
};

/// Outcome of one seed.
struct FuzzCase {
  enum class Status { Passed, Duplicate, Failed };
  unsigned Seed = 0;
  Status St = Status::Passed;
  /// Generator template that produced the kernel ("map1d", "mmlike", ...).
  std::string Shape;
  int VariantsChecked = 0;
  int VariantsRun = 0;
  /// The generated naive source (kept only for failing cases).
  std::string Source;
  /// First oracle failure (the minimization target).
  OracleFailure Failure;
  /// Minimized repro (equals Source when reduction is disabled or stuck).
  std::string Reduced;
  ReduceStats Reduce;
};

struct FuzzSummary {
  int Cases = 0;
  int Passed = 0;
  int Duplicates = 0;
  int Failed = 0;
  long long VariantsChecked = 0;
  /// Checks that executed their kernel or chain (OracleResult::VariantsRun).
  long long VariantsRun = 0;
  /// Shape -> number of non-duplicate cases exercising it.
  std::map<std::string, int> ShapeCounts;
  /// Failing cases, ascending by seed.
  std::vector<FuzzCase> Failures;
};

/// Display name for an oracle failure kind ("compile-error", "run-error",
/// "mismatch", "race").
const char *failureKindName(OracleFailure::Kind K);

/// Renders the machine-readable failure record for one failing case.
std::string failureRecordJson(const FuzzCase &C);

/// Parses \p Source and runs the differential oracle on it. \returns false
/// when the source does not parse (diagnostics in \p ParseErrors) — used by
/// gpuc-fuzz --check and by the reducer predicate.
bool checkKernelSource(const std::string &Source, const OracleOptions &Opt,
                       OracleResult &Result, std::string &ParseErrors);

/// Pipeline analogue of checkKernelSource: parses \p Source as a
/// multi-kernel translation unit (Parser::parseProgram) and runs the
/// fusion-differential oracle on the chain. \returns false when the
/// source does not parse as a pipeline of >= 2 kernels.
bool checkPipelineSource(const std::string &Source, const OracleOptions &Opt,
                         OracleResult &Result, std::string &ParseErrors);

/// Layout analogue of checkKernelSource: parses \p Source and runs the
/// layout-differential oracle (runLayoutOracle) on it.
bool checkLayoutSource(const std::string &Source, const OracleOptions &Opt,
                       OracleResult &Result, std::string &ParseErrors);

/// Runs the fuzzing loop. Per-seed progress lines go to \p Progress when
/// non-null (failures and a final summary are always the caller's job).
FuzzSummary runFuzz(const FuzzOptions &Opt, std::ostream *Progress = nullptr);

} // namespace gpuc

#endif // GPUC_FUZZ_FUZZER_H
