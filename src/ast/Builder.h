//===-- ast/Builder.h - Fluent kernel construction API ----------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A convenience layer for constructing kernels programmatically. Used by
/// the CUBLAS-like baseline kernels, the SDK transpose variants, tests and
/// examples; end users writing naive kernels normally go through the
/// parser instead.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_BUILDER_H
#define GPUC_AST_BUILDER_H

#include "ast/Kernel.h"

#include <string>
#include <vector>

namespace gpuc {

/// Builds one kernel inside a Module. Statement insertion follows an
/// explicit scope stack: beginFor/endFor, beginIf/endIf.
class KernelBuilder {
public:
  KernelBuilder(Module &M, std::string KernelName);

  ASTContext &ctx() { return Ctx; }
  KernelFunction *kernel() { return K; }

  // -- Parameters ----------------------------------------------------------

  /// Adds a global array parameter with row-major \p Dims.
  void arrayParam(const std::string &Name, Type ElemTy,
                  std::vector<long long> Dims, bool IsOutput = false);
  /// Adds a scalar parameter with a compile-time binding.
  void scalarParam(const std::string &Name, Type Ty, long long Binding);

  // -- Expressions ---------------------------------------------------------

  Expr *i(long long V) { return Ctx.intLit(V); }
  Expr *f(double V) { return Ctx.floatLit(V); }
  Expr *v(const std::string &Name, Type Ty = Type::floatTy());
  Expr *iv(const std::string &Name) { return v(Name, Type::intTy()); }
  Expr *idx() { return Ctx.builtin(BuiltinId::Idx); }
  Expr *idy() { return Ctx.builtin(BuiltinId::Idy); }
  Expr *tidx() { return Ctx.builtin(BuiltinId::Tidx); }
  Expr *tidy() { return Ctx.builtin(BuiltinId::Tidy); }
  Expr *bidx() { return Ctx.builtin(BuiltinId::Bidx); }
  Expr *bidy() { return Ctx.builtin(BuiltinId::Bidy); }

  Expr *add(Expr *L, Expr *R) { return Ctx.add(L, R); }
  Expr *sub(Expr *L, Expr *R) { return Ctx.sub(L, R); }
  Expr *mul(Expr *L, Expr *R) { return Ctx.mul(L, R); }
  Expr *div(Expr *L, Expr *R) { return Ctx.div(L, R); }
  Expr *rem(Expr *L, Expr *R) { return Ctx.rem(L, R); }
  Expr *lt(Expr *L, Expr *R) { return Ctx.lt(L, R); }
  Expr *ge(Expr *L, Expr *R) { return Ctx.ge(L, R); }
  Expr *eq(Expr *L, Expr *R) { return Ctx.eq(L, R); }

  /// Global or shared array access; element type is looked up from the
  /// parameter list / shared declarations seen so far.
  Expr *at(const std::string &Base, std::vector<Expr *> Indices);

  Expr *fieldX(Expr *E) { return Ctx.member(E, 0); }
  Expr *fieldY(Expr *E) { return Ctx.member(E, 1); }

  // -- Statements ----------------------------------------------------------

  void decl(const std::string &Name, Type Ty, Expr *Init);
  void declShared(const std::string &Name, Type Ty, std::vector<int> Dims);
  void assign(Expr *LHS, Expr *RHS);
  void addAssign(Expr *LHS, Expr *RHS);
  void beginFor(const std::string &Iter, Expr *Init, Expr *Bound,
                Expr *Step);
  /// Halving loop for (int s = Init; s >= 1; s = s / 2).
  void beginForHalving(const std::string &Iter, Expr *Init);
  void endFor();
  void beginIf(Expr *Cond);
  void beginElse();
  void endIf();
  void syncThreads();
  void globalSync();

  /// Finalizes the launch configuration and work domain and returns the
  /// kernel. Grid dimensions default to WorkDomain / blockDim.
  KernelFunction *finish(int BlockDimX, int BlockDimY, long long DomainX,
                         long long DomainY);

private:
  CompoundStmt *top() { return Scopes.back(); }
  Type lookupElemTy(const std::string &Base) const;

  Module &M;
  ASTContext &Ctx;
  KernelFunction *K;
  std::vector<CompoundStmt *> Scopes;
  std::vector<Stmt *> Pending; // open for/if frames, parallel to Scopes tail
  struct OpenFrame {
    enum { For, If, Else } Kind;
    Stmt *S;
  };
  std::vector<OpenFrame> Frames;
  std::vector<std::pair<std::string, Type>> SharedTys;
};

} // namespace gpuc

#endif // GPUC_AST_BUILDER_H
