//===-- analysis/Lint.h - Kernel lint passes --------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warning-level kernel lints built on the affine access model:
///
///  * out-of-bounds: per-subscript value ranges (over the launch
///    configuration and resolvable loop bounds) versus declared extents,
///    for global parameters and __shared__ arrays;
///  * shared-memory bank conflicts: half-warp lane addresses folded into
///    banks, with the broadcast exception (Section 2's hardware rules);
///  * non-coalesced global accesses surviving compilation, with the
///    Section 3.2 failure class as the reason.
///
/// All lints report through DiagnosticsEngine::warning, so gpucc --Werror
/// promotes them to hard errors.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_LINT_H
#define GPUC_ANALYSIS_LINT_H

#include "ast/Kernel.h"
#include "support/Diagnostics.h"

namespace gpuc {

struct DataflowResult;
struct PhaseModel;

/// How to lint. The bounds and bank-conflict lints always run.
struct LintOptions {
  bool Coalescing = true;
  /// Verdict mode (gpucc --lint=strict): bounds lints come from the
  /// abstract-interpretation engine (analysis/Dataflow.h) and every
  /// finding carries a proven/possible verdict. Guarded accesses are no
  /// longer silently skipped — a guard the engine can prove sufficient
  /// (the clamped-halo idiom) stays quiet, an unprovable one reports as
  /// "possible", and an access proven to fault reports as "proven".
  bool Strict = false;
  /// Prefix for messages, e.g. the pipeline stage name.
  std::string Context;
};

/// Runs the lints over \p K, whose buildPhaseModel is \p Model and whose
/// runDataflow is \p Facts, reporting warnings to \p Diags. Only strict
/// mode reads Facts; it may be null otherwise. \returns the number of
/// warnings produced.
int lintKernel(KernelFunction &K, const PhaseModel &Model,
               const DataflowResult *Facts, DiagnosticsEngine &Diags,
               const LintOptions &Opt = LintOptions());

} // namespace gpuc

#endif // GPUC_ANALYSIS_LINT_H
