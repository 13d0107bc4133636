//===-- analysis/Dataflow.h - Abstract-interpretation engine ----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward dataflow over the kernel AST, computing for every program point
///
///  * per-variable facts: a canonical affine form over tid/bid and
///    in-scope loop iterators (when one exists), a value interval
///    (analysis/Ranges.h) and a divergence fact (analysis/Divergence.h);
///  * per-array-access facts: the flat word-offset interval the simulator
///    bounds-checks, with a three-valued verdict — Proven in bounds,
///    Possible, or Violation (provably executes and provably faults);
///  * per-barrier facts: whether the __syncthreads / __globalSync is
///    proven to execute under uniform control flow with equal trip
///    counts, refuted (Violation), or merely not proven (Possible).
///
/// Loops run to a small fixpoint with widening; if branches refine the
/// environment by the branch condition (interval clipping on compared
/// variables plus affine guard constraints clipped into collinear access
/// forms) and join afterwards. Verdict soundness contract, enforced by
/// gpuc-fuzz --check-static: a kernel whose accesses are all Proven and
/// whose barriers are all Proven can never fail the dynamic sanitizer's
/// bounds or barrier checks; a Violation can never survive a dynamic run
/// that reaches it. Possible constrains nothing.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_DATAFLOW_H
#define GPUC_ANALYSIS_DATAFLOW_H

#include "analysis/Divergence.h"
#include "analysis/Ranges.h"
#include "ast/Affine.h"
#include "ast/Kernel.h"

#include <map>
#include <string>
#include <vector>

namespace gpuc {

/// Three-valued judgment about a property of one program point.
enum class Verdict { Proven, Possible, Violation };

/// "proven" / "possible" / "violation".
const char *verdictName(Verdict V);

/// Is \p Op one of the six comparisons (< <= > >= == !=)?
bool isCmpOp(BinOp Op);
/// `!(x Cmp y)` as a comparison.
BinOp negateCmp(BinOp Op);
/// Does \p V satisfy `V Cmp 0`? False for a non-comparison \p Cmp.
bool satisfiesCmp(long long V, BinOp Cmp);

/// Abstract value of one scalar variable.
struct VarFact {
  /// Canonical affine form over builtins and in-scope loop iterators
  /// (other locals are spliced in at build time).
  bool HasForm = false;
  AffineExpr Form;
  Interval Range;
  DivFact Div;

  bool operator==(const VarFact &O) const;
};

/// One syntactic array access.
struct AccessFact {
  const ArrayRef *Ref = nullptr;
  std::string Array;
  bool IsShared = false;
  bool IsStore = false;
  /// Flat word (4-byte) offset interval of the access base, matching the
  /// simulator's bounds check: valid iff 0 <= off && off + Lanes <=
  /// TotalWords.
  Interval Words;
  /// Declared extent of the array in words.
  long long TotalWords = 0;
  /// Words touched per access (element lanes, or the reinterpreted
  /// vector width).
  int Lanes = 1;
  Verdict Bounds = Verdict::Possible;
  /// Divergence of the address across threads/blocks.
  DivFact AddrDiv;
  /// Under an if/while or a possibly-zero-trip loop: the access need not
  /// execute on every thread.
  bool Guarded = false;
  SourceLocation Loc;
};

/// One barrier statement.
struct BarrierFact {
  const SyncStmt *Sync = nullptr;
  bool IsGlobal = false;
  Verdict Uniformity = Verdict::Proven;
  /// Human-readable reason when not Proven.
  std::string Reason;
};

struct DataflowResult {
  std::vector<AccessFact> Accesses;
  std::vector<BarrierFact> Barriers;
  /// Variable facts at kernel exit (golden-tested).
  std::map<std::string, VarFact> ExitVars;

  /// Every access proven in bounds.
  bool boundsClean() const;
  /// Every barrier proven uniform.
  bool barriersClean() const;
  bool anyViolation() const;
  const AccessFact *factFor(const ArrayRef *Ref) const;
};

/// Runs the engine over \p K. The kernel must verify structurally
/// (ast/Verifier.h); unresolved symbols degrade facts to top rather than
/// crash.
DataflowResult runDataflow(const KernelFunction &K);

} // namespace gpuc

#endif // GPUC_ANALYSIS_DATAFLOW_H
