//===-- analysis/Sanitizer.h - Static kernel sanitizer ----------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Facade over the race detector and the lints, installed by
/// attachStageSanitizer as a core/Compiler stage hook so every
/// intermediate kernel of every explored variant is checked — a misplaced
/// barrier is blamed on the stage that introduced it. Races become errors
/// with witness notes, lints and unproved race-freedom become warnings.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_SANITIZER_H
#define GPUC_ANALYSIS_SANITIZER_H

#include "core/Compiler.h"

namespace gpuc {

/// What the sanitizer runs.
struct SanitizeOptions {
  /// Static shared-memory race detection (errors).
  bool Races = true;
  /// Kernel lints (warnings).
  bool Lint = true;
  /// Lints in verdict mode (LintOptions::Strict, gpucc --lint=strict).
  bool LintStrict = false;
};

/// Cumulative results over every kernel the stage sanitizer checked.
struct SanitizeSummary {
  int KernelsChecked = 0;
  int RaceErrors = 0;
  int LintWarnings = 0;
  int Unanalyzable = 0;
};

/// Installs the sanitizer as \p CO's per-stage hook factory; each search
/// task's hook reports into that task's engine. \p Summary (optional)
/// must outlive the compilation. Races found at any stage are errors
/// attributed to that stage; the coalescing lint only runs on final
/// kernels.
void attachStageSanitizer(CompileOptions &CO,
                          const SanitizeOptions &Opt = SanitizeOptions(),
                          SanitizeSummary *Summary = nullptr);

} // namespace gpuc

#endif // GPUC_ANALYSIS_SANITIZER_H
