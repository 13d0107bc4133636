//===-- analysis/Divergence.h - Thread-divergence lattice -------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-point divergence lattice of the abstract-interpretation
/// engine: every expression is classified as provably uniform across the
/// threads of a block, possibly tid-dependent, or unknown (data-dependent
/// through memory). The same lattice is reused along the block axis, where
/// the middle element means "may depend on the block id" — that is what
/// __globalSync legality cares about.
///
/// The classification is a may-analysis: Uniform is a proof, TidDependent
/// and Unknown are over-approximations (tidx - tidx joins to TidDependent
/// even though it is uniform). Proofs of *actual* divergence — needed for
/// Violation verdicts — come from the affine range layer (Dataflow.cpp's
/// straddle test), never from this join.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_DIVERGENCE_H
#define GPUC_ANALYSIS_DIVERGENCE_H

#include "ast/Kernel.h"

#include <string>

namespace gpuc {

/// Ordered Uniform < TidDependent < Unknown; join is max.
enum class Divergence { Uniform, TidDependent, Unknown };

/// "uniform" / "tid-dependent" / "unknown".
const char *divergenceName(Divergence D);

Divergence joinDiv(Divergence A, Divergence B);

/// Divergence along both grid axes: Thread says whether the value may
/// differ between threads of one block, Block whether it may differ
/// between blocks.
struct DivFact {
  Divergence Thread = Divergence::Uniform;
  Divergence Block = Divergence::Uniform;

  bool uniform() const {
    return Thread == Divergence::Uniform && Block == Divergence::Uniform;
  }
  bool operator==(const DivFact &O) const {
    return Thread == O.Thread && Block == O.Block;
  }
};

DivFact joinDiv(const DivFact &A, const DivFact &B);

/// Per-variable divergence environment for divergenceOf: a non-owning
/// view that maps a local's name to its fact (null when it has none)
/// through \p Find, called with \p Ctx. Scalar parameters are launch-wide
/// constants (uniform on both axes) and need no entry; a local without an
/// entry is treated as Unknown.
struct DivEnv {
  const void *Ctx = nullptr;
  const DivFact *(*Find)(const void *Ctx, const std::string &Name) = nullptr;

  const DivFact *lookup(const std::string &Name) const {
    return Find ? Find(Ctx, Name) : nullptr;
  }
};

/// Structural may-divergence of \p E under \p Env: the join over its
/// leaves. Loaded array elements are Unknown on both axes (another thread
/// may have written them).
DivFact divergenceOf(const Expr *E, const KernelFunction &K,
                     const DivEnv &Env);

} // namespace gpuc

#endif // GPUC_ANALYSIS_DIVERGENCE_H
