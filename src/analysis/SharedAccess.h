//===-- analysis/SharedAccess.h - Barrier phases and shared accesses -*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partitions a kernel into barrier-delimited phases and collects every
/// __shared__ access with a symbolic per-thread address, the input to the
/// static race detector and the shared-memory lints.
///
/// Phases are dynamic: a loop whose body contains a barrier is symbolically
/// unrolled (its iterator becomes a concrete value per unrolled iteration),
/// so the segment after the last barrier of iteration i and the segment
/// before the first barrier of iteration i+1 correctly land in the same
/// phase — the classic "missing second __syncthreads()" race window.
/// Barrier-free loops stay symbolic; their iterators are enumerated later
/// (capped, relying on the same periodicity argument Section 3.2 uses for
/// coalescing checks). Barriers under divergent control flow or inside
/// loops whose trip count cannot be resolved make the kernel unanalyzable,
/// which is reported rather than silently ignored.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_SHAREDACCESS_H
#define GPUC_ANALYSIS_SHAREDACCESS_H

#include "ast/Affine.h"

#include <map>
#include <string>
#include <vector>

namespace gpuc {

/// One barrier-free enclosing loop of an access, with the iterator values
/// to enumerate (the first 18 values; behaviour is periodic for affine
/// subscripts, mirroring the 16-iteration argument of Section 3.2).
struct EnumLoop {
  std::string Name;
  std::vector<long long> Values;
  long long Min = 0;
  long long Max = 0;
  bool Capped = false;
  bool Resolved = false;
};

/// A control-flow guard from an enclosing if: Delta(cmp)0 must hold for the
/// access to execute (Delta = lhs - rhs of the condition). Unresolved
/// guards (non-affine conditions) are treated as may-true.
struct AccessGuard {
  AffineExpr Delta;
  /// One of the six comparisons (isCmpOp in analysis/Dataflow.h).
  BinOp Cmp = BinOp::LT;
};

/// One __shared__ access placed into a phase.
struct SharedAccess {
  const ArrayRef *Ref = nullptr;
  const DeclStmt *Decl = nullptr;
  bool IsWrite = false;
  int Phase = 0;
  /// Flat float-word offset into the array (element index scaled by the
  /// element's float lanes); sync-loop iterators are already substituted,
  /// so remaining LoopCoeffs name barrier-free loops only. Valid only when
  /// Resolved.
  AffineExpr FlatFloat;
  /// Consecutive float words touched per access (1 for float, 2/4 for
  /// vector elements).
  int Lanes = 1;
  bool Resolved = false;
  /// Enclosing barrier-free loops (innermost last).
  std::vector<EnumLoop> Loops;
  std::vector<AccessGuard> Guards;
  /// True if some enclosing condition was not affine; the access is then
  /// treated as executing unconditionally (may-access over-approximation).
  bool UnknownGuard = false;
  /// Value signature of a staging store: set when the store's RHS is
  /// exactly a load of one global array with affine subscripts. Two
  /// same-word writers with equal source elements copy identical data —
  /// the redundant halo-load idiom block merge produces — and are not
  /// reported as a write-write race.
  bool HasSrc = false;
  std::string SrcArray;
  /// Flat element offset into SrcArray (sync iterators substituted).
  AffineExpr SrcAddr;
  SourceLocation Loc;
};

/// The phase partition of one kernel.
struct PhaseModel {
  std::vector<SharedAccess> Accesses;
  /// Total number of phases (phase ids are 0..NumPhases-1).
  int NumPhases = 1;
  /// False when the barrier structure could not be modeled (divergent
  /// barrier, unresolvable sync-loop trip count); Problems explains why.
  bool Analyzable = true;
  std::vector<std::string> Problems;
};

/// Builds the phase model of \p K under its current launch configuration.
/// A loop containing a barrier unrolls for at most 256 iterations.
PhaseModel buildPhaseModel(const KernelFunction &K);

/// Enumerates the first \p Cap values of loop \p F given concrete bindings
/// for enclosing sync-loop iterators. Handles the canonical Add loops and
/// the halving Div loops of the reduction kernels.
EnumLoop enumerateLoopValues(const ForStmt *F, const KernelFunction &K,
                             const std::map<std::string, long long> &Env,
                             int Cap);

/// Evaluates guard \p G for a concrete thread/loop assignment.
bool guardHolds(const AccessGuard &G, long long Tidx, long long Tidy,
                long long Bidx, long long Bidy,
                const std::map<std::string, long long> &LoopValues);

} // namespace gpuc

#endif // GPUC_ANALYSIS_SHAREDACCESS_H
