//===-- ast/Verifier.h - Structural kernel validation -----------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural invariants every well-formed kernel must satisfy; the
/// compiler re-verifies after each transformation pipeline so a broken
/// pass fails loudly at compile time rather than as silent miscomputation
/// in the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_VERIFIER_H
#define GPUC_AST_VERIFIER_H

#include "ast/Kernel.h"

#include <string>
#include <vector>

namespace gpuc {

/// Checks \p K's structural invariants:
///  * every variable reference resolves to a local declaration, a loop
///    iterator or a scalar parameter;
///  * every array reference names an array parameter or a __shared__
///    declaration, with a subscript count matching its dimensionality
///    (one flat subscript for reinterpreted float2/float4 views);
///  * assignment targets are variables, arrays or vector fields, and
///    scalar parameters are never stored to;
///  * launch dimensions are positive, the block is not larger than any
///    supported hardware allows, and shared usage is positive-sized.
///
/// Barrier validity (no barrier under divergent control flow or inside a
/// loop with thread-dependent trip count) is proven separately by the
/// dataflow engine's divergence lattice (analysis/Dataflow.h), whose
/// barrier facts the compiler reports alongside this structural pass.
///
/// \returns human-readable violations; empty means the kernel verified.
std::vector<std::string> verifyKernel(const KernelFunction &K);

} // namespace gpuc

#endif // GPUC_AST_VERIFIER_H
