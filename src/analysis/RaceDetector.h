//===-- analysis/RaceDetector.h - Static shared-memory races ----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static shared-memory race detection: within each barrier-delimited
/// phase (analysis/SharedAccess.h), the per-thread symbolic address sets of
/// every pair of accesses to the same __shared__ array are intersected; a
/// write-write or write-read overlap between two distinct threads of a
/// block is a race, reported with a concrete witness (element, thread pair,
/// the two access expressions and their phase).
///
/// The compiler's own coalescing conversion, thread-block merge and
/// prefetching all stage data through barrier-guarded __shared__ tiles
/// (Sections 3.3/3.5/3.6); this detector proves those rewrites
/// barrier-correct and flags a misplaced or missing __syncthreads() at the
/// stage that introduced it.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_RACEDETECTOR_H
#define GPUC_ANALYSIS_RACEDETECTOR_H

#include "analysis/SharedAccess.h"

#include <string>
#include <vector>

namespace gpuc {

struct DataflowResult;

/// One detected race with a concrete witness.
struct RaceFinding {
  std::string Array;
  /// True: write-write; false: write-read.
  bool WriteWrite = false;
  int Phase = 0;
  /// Conflicting float-word offset within the array.
  long long Word = 0;
  /// Witness thread pair (in-block coordinates).
  int T1x = 0, T1y = 0, T2x = 0, T2y = 0;
  const ArrayRef *Ref1 = nullptr;
  const ArrayRef *Ref2 = nullptr;
  SourceLocation Loc1, Loc2;

  /// Human-readable one-line description.
  std::string str() const;
};

/// Result of a race analysis.
struct RaceReport {
  std::vector<RaceFinding> Findings;
  /// False when the phase structure could not be modeled; Notes explains.
  bool Analyzable = true;
  /// Caveats: unanalyzable constructs, unresolved subscripts.
  std::vector<std::string> Notes;

  bool clean() const { return Findings.empty() && Analyzable; }
};

/// Runs the detector on \p K under its current launch configuration, over
/// \p Model, K's buildPhaseModel, and \p Facts, K's runDataflow, whose
/// word ranges triage the accesses the enumeration cannot resolve. Facts
/// are read only when Model is analyzable and may be null otherwise. It
/// enumerates at most 4096 free-loop value combinations per access and
/// reports at most 16 findings.
RaceReport detectSharedRaces(const KernelFunction &K, const PhaseModel &Model,
                             const DataflowResult *Facts);

} // namespace gpuc

#endif // GPUC_ANALYSIS_RACEDETECTOR_H
