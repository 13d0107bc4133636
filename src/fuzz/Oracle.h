//===-- fuzz/Oracle.h - Differential translation validation -----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation by execution: every variant the design-space
/// search produces is checked against the naive kernel in the simulator
/// on identical randomized inputs, and the outputs are compared
/// element-wise — exact for kernels that only move data, within 256 ULP
/// or 1e-4 relative where the transforms may reassociate float
/// arithmetic. A mismatch, crash, race or diagnostic regression is
/// attributed to the first pipeline stage whose intermediate kernel
/// (snapshotted through core/Compiler's StageHook) diverges from the
/// naive reference.
///
/// All three oracles (search, layout, pipeline) check each kernel or chain
/// the same way: one seeded, race-logged run on the oracle's engine, one
/// run on the other interpreter engine compared with it where CheckInterp
/// covers the kernel, and one judgment of the first run against the naive
/// reference — a fault, then a race, then an output mismatch. Each distinct
/// kernel chain runs once per case: a check of a chain identical to one
/// the case already passed (every kernel's hashKernel and name-masked
/// printKernel text equal, under the same comparator exactness and
/// cross-check setting) is counted and reuses that pass. Failures are never
/// reused, so a failing variant is run, judged and attributed every time.
///
/// The Inject hook exists for the oracle's own test coverage: a test
/// installs a stage hook that deliberately corrupts the kernel after a
/// named stage, and the attribution must blame exactly that stage.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_FUZZ_ORACLE_H
#define GPUC_FUZZ_ORACLE_H

#include "core/Compiler.h"

#include <string>
#include <vector>

namespace gpuc {

struct OracleOptions {
  /// Base pipeline configuration. Jobs is forced to 1 (the fuzzer
  /// parallelizes across seeds, not inside a case), and a set Inject
  /// replaces HookFactory.
  CompileOptions Compile;
  /// Seed for the randomized input buffers (fillPipelineFuzzInputs over
  /// the naive kernel or chain).
  unsigned InputSeed = 0x9e3779b9u;
  /// Differential static-vs-dynamic soundness check (gpuc-fuzz
  /// --check-static): classify the naive kernel with the
  /// abstract-interpretation engine (analysis/Dataflow.h) before running
  /// it. A kernel proven clean (every access and barrier Proven, race
  /// detector clean) must never fail the dynamic sanitizer, and a kernel
  /// with a proven out-of-bounds access must always fault dynamically.
  /// Either direction broken is a Kind::StaticUnsound failure — a bug in
  /// the analysis engine, not in the kernel under test.
  bool CheckStatic = false;
  /// Differential check of the two interpreter engines: the naive kernel
  /// or chain, every kernel the layout oracle checks and the pipeline
  /// oracle's fused naive kernel are rerun on the engine Compile.Interp
  /// does not select and must reproduce the outcome, every buffer bit for
  /// bit and the race log record for record. Any divergence is a
  /// Kind::InterpDivergence failure — a bug in one of the engines, not in
  /// the kernel under test — and ends that kernel's check.
  bool CheckInterp = true;
  /// Test-only fault injection: the stage hook of every compileVariant
  /// call the oracle makes, run before the oracle snapshots the kernel.
  StageHook Inject;
};

/// One equivalence violation found by the oracle.
struct OracleFailure {
  enum class Kind {
    CompileError,
    RunError,
    Mismatch,
    Race,
    StaticUnsound,
    InterpDivergence,
  };
  Kind FailKind = Kind::Mismatch;
  /// Variant identity ("naive" for reference-side failures).
  std::string Variant;
  int BlockN = 1, ThreadM = 1;
  /// First pipeline stage whose snapshot diverges from the reference
  /// ("unattributed" when re-compilation did not reproduce the failure).
  std::string Stage;
  /// Mismatch payload: output array, element count, first bad element.
  std::string Array;
  long long MismatchCount = 0;
  long long FirstBadIndex = -1;
  float Want = 0, Got = 0;
  /// Diagnostics / race description.
  std::string Detail;
};

struct OracleResult {
  bool Passed = true;
  /// Variants checked against the reference (naive excluded), each
  /// repeat of a kernel or chain the case already passed included.
  int VariantsChecked = 0;
  /// The checks that executed their kernel or chain: VariantsChecked
  /// less the repeats that reused an earlier pass.
  int VariantsRun = 0;
  /// True when no transform changed float evaluation order eligibility —
  /// i.e. the kernel was classified data-movement-only and compared
  /// bit-exactly.
  bool ExactCompare = false;
  std::vector<OracleFailure> Failures;
  /// Winning variant's merge factors (diagnostics for shape coverage).
  int BestBlockN = 1, BestThreadM = 1;
};

/// Fills every array parameter of \p K with seed-deterministic values in
/// [-0.5, 0.5): fillPipelineFuzzInputs over a chain of one.
void fillFuzzInputs(const KernelFunction &K, BufferSet &Buffers,
                    unsigned Seed);

/// \returns true when \p K performs float arithmetic whose order a
/// transform may legally change (anything beyond moving values around).
bool kernelHasFloatArith(const KernelFunction &K);

/// Units-in-last-place distance between two floats (INT_MAX-clamped;
/// NaN/NaN and inf/inf of equal sign count as 0).
long long ulpDistance(float A, float B);

/// Runs the full differential check of \p Naive under \p Opt. \p M is the
/// module owning \p Naive (variant kernels are built in it / in
/// search-owned modules, as in a normal compilation).
OracleResult runOracle(Module &M, const KernelFunction &Naive,
                       const OracleOptions &Opt);

/// Layout-differential analogue of runOracle (gpuc-fuzz --layout): the
/// affine layout family (core/AffineLayout) is exercised against the
/// naive semantics in two tiers. First, every pure block-id remap that is
/// legal on the naive kernel's own grid is installed directly on a clone
/// of the naive kernel and must reproduce its outputs bit-for-bit
/// regardless of float arithmetic — a bijective relabeling of blocks may
/// not change a single bit. Second, the full family (FullFamily
/// enumeration, not just camping-gated points) is compiled through the
/// whole pipeline at unit merge factors and each variant must match naive
/// under the usual comparator (exact for data movement, ULP where
/// transforms may reassociate floats). Every checked kernel is also
/// cross-checked scalar-vs-vector (CheckInterp). Failures carry Stage =
/// "layout:<name>".
OracleResult runLayoutOracle(Module &M, const KernelFunction &Naive,
                             const OracleOptions &Opt);

/// Fills every array parameter of every stage, in pipeline order, with
/// one continuing LCG sequence of values in [-0.5, 0.5), skipping names
/// already allocated (so a consumer sees the same bytes its producer's
/// buffer was seeded with before being overwritten). The oracles seed
/// every run this way, and gpucc --validate uses it with seed 99.
void fillPipelineFuzzInputs(const std::vector<const KernelFunction *> &Stages,
                            BufferSet &Buffers, unsigned Seed);

/// Runs the fusion-differential check of a multi-kernel pipeline: the
/// unfused naive chain (sim/Simulator runPipelineFunctional) is the
/// reference; the fused naive kernel (when legality admits one) must
/// match it bit-exactly on the final stage's outputs, every compiled
/// fused variant and the chained per-stage winners must match within the
/// float tolerance, and both interpreter engines must agree on the chain
/// and on the fused naive kernel. Every run is seeded from the chain's
/// inputs. \p Stages must be the parsed pipeline in order (>= 2 kernels,
/// owned by \p M).
OracleResult
runPipelineOracle(Module &M,
                  const std::vector<const KernelFunction *> &Stages,
                  const OracleOptions &Opt);

} // namespace gpuc

#endif // GPUC_FUZZ_ORACLE_H
