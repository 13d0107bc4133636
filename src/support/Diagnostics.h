//===-- support/Diagnostics.h - Error reporting -----------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostics engine. gpuc is built without exceptions; fallible
/// components report here and return null/empty results. Diagnostics carry
/// a severity (error/warning/note); warnings can be promoted to errors
/// (the gpucc --Werror path) and per-severity counts drive exit codes and
/// summaries.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SUPPORT_DIAGNOSTICS_H
#define GPUC_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLocation.h"

#include <string>
#include <vector>

namespace gpuc {

/// Severity of a reported diagnostic.
enum class DiagKind { Error, Warning, Note };

/// Display name ("error", "warning", "note").
const char *diagKindName(DiagKind K);

/// One reported diagnostic.
struct Diagnostic {
  DiagKind Kind = DiagKind::Error;
  SourceLocation Loc;
  std::string Message;
  /// True for a warning recorded as an error under warnings-as-errors.
  bool Promoted = false;
};

/// Collects diagnostics produced while parsing or compiling one kernel.
class DiagnosticsEngine {
public:
  void error(SourceLocation Loc, std::string Message);
  void warning(SourceLocation Loc, std::string Message);
  void note(SourceLocation Loc, std::string Message);
  void report(DiagKind Kind, SourceLocation Loc, std::string Message);

  /// When enabled, subsequent warnings are recorded and counted as errors
  /// (rendered with a "[-Werror]" suffix).
  void setWarningsAsErrors(bool Enable) { WarningsAsErrors = Enable; }

  bool hasErrors() const { return NumErrors > 0; }
  bool hasWarnings() const { return NumWarnings > 0; }
  unsigned errorCount() const { return NumErrors; }
  unsigned warningCount() const { return NumWarnings; }
  unsigned count(DiagKind Kind) const;
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders every diagnostic as "line:col: kind: message" lines.
  std::string str() const;

  /// Compiler-style totals line, e.g. "2 warnings and 1 error generated.";
  /// empty when nothing was reported.
  std::string summary() const;

  void clear();

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
  unsigned NumWarnings = 0;
  unsigned NumNotes = 0;
  bool WarningsAsErrors = false;
};

} // namespace gpuc

#endif // GPUC_SUPPORT_DIAGNOSTICS_H
