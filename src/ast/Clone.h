//===-- ast/Clone.h - Deep copying of AST nodes -----------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep clone of expressions, statements and kernels. The design-space
/// exploration (Section 4) clones the coalesced kernel once per candidate
/// merge configuration.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_CLONE_H
#define GPUC_AST_CLONE_H

#include "ast/Kernel.h"

namespace gpuc {

/// Deep-copies \p E, allocating in \p Ctx.
Expr *cloneExpr(ASTContext &Ctx, const Expr *E);

/// Deep-copies \p S, allocating in \p Ctx.
Stmt *cloneStmt(ASTContext &Ctx, const Stmt *S);

CompoundStmt *cloneCompound(ASTContext &Ctx, const CompoundStmt *S);

/// Clones kernel \p K into \p M under the name \p NewName (params, launch
/// config, bindings, work domain and body are all copied).
KernelFunction *cloneKernel(Module &M, const KernelFunction *K,
                            std::string NewName);

/// Creates a kernel in \p M with \p K's name, params, launch config,
/// bindings and work domain that points at \p K's body instead of copying
/// it, so the body must outlive the new kernel (the design-space search
/// creates its remap copies in their build's own Module). The interpreter
/// writes resolution scratch into the nodes, so \p K and the new kernel
/// must never run at the same time.
KernelFunction *shareKernel(Module &M, const KernelFunction &K);

} // namespace gpuc

#endif // GPUC_AST_CLONE_H
