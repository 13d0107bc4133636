//===-- ast/Stmt.h - Statement nodes ----------------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement nodes of the naive-kernel dialect. Loops are kept in the
/// canonical form `for (int i = Init; i Cmp Bound; i = i Step StepVal)` so
/// the coalescing and unrolling machinery of Sections 3.2/3.3 can reason
/// about iteration spaces directly.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_STMT_H
#define GPUC_AST_STMT_H

#include "ast/Expr.h"

#include <string>
#include <vector>

namespace gpuc {

enum class StmtKind { Compound, Decl, Assign, If, For, While, Sync };

class Stmt {
public:
  virtual ~Stmt() = default;

  StmtKind kind() const { return K; }
  SourceLocation loc() const { return Loc; }

protected:
  explicit Stmt(StmtKind K) : K(K) {}

private:
  StmtKind K;
  SourceLocation Loc;
};

/// Brace-enclosed statement list.
class CompoundStmt : public Stmt {
public:
  CompoundStmt() : Stmt(StmtKind::Compound) {}
  explicit CompoundStmt(std::vector<Stmt *> Body)
      : Stmt(StmtKind::Compound), Body(std::move(Body)) {}

  const std::vector<Stmt *> &body() const { return Body; }
  std::vector<Stmt *> &body() { return Body; }
  void append(Stmt *S) { Body.push_back(S); }

  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Compound;
  }

private:
  std::vector<Stmt *> Body;
};

/// Declaration of a kernel-local scalar (`float sum = 0;`) or of a
/// __shared__ staging array (`__shared__ float shared0[16][17];`).
class DeclStmt : public Stmt {
public:
  DeclStmt(std::string Name, Type Ty, Expr *Init)
      : Stmt(StmtKind::Decl), Name(std::move(Name)), Ty(Ty), Init(Init) {}
  DeclStmt(std::string Name, Type Ty, std::vector<int> SharedDims)
      : Stmt(StmtKind::Decl), Name(std::move(Name)), Ty(Ty), Init(nullptr),
        IsShared(true), SharedDims(std::move(SharedDims)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  Type declType() const { return Ty; }
  Expr *init() const { return Init; }
  void setInit(Expr *E) { Init = E; }
  bool isShared() const { return IsShared; }
  const std::vector<int> &sharedDims() const { return SharedDims; }
  std::vector<int> &sharedDims() { return SharedDims; }

  /// Element count of a shared array.
  long long sharedElemCount() const {
    long long N = 1;
    for (int D : SharedDims)
      N *= D;
    return N;
  }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Decl; }

  /// Interpreter scratch.
  mutable int ResolvedSlot = -1;
  mutable int ResolvedShared = -1;

private:
  std::string Name;
  Type Ty;
  Expr *Init;
  bool IsShared = false;
  std::vector<int> SharedDims;
};

enum class AssignOp { Assign, AddAssign, SubAssign, MulAssign };

/// Assignment. The LHS is a VarRef, ArrayRef or Member expression.
class AssignStmt : public Stmt {
public:
  AssignStmt(Expr *LHS, AssignOp Op, Expr *RHS)
      : Stmt(StmtKind::Assign), LHS(LHS), Op(Op), RHS(RHS) {}

  Expr *lhs() const { return LHS; }
  AssignOp op() const { return Op; }
  Expr *rhs() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }
  void setOp(AssignOp O) { Op = O; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  Expr *LHS;
  AssignOp Op;
  Expr *RHS;
};

/// Conditional. Divergent branches are allowed but may not contain
/// synchronization (checked by the interpreter).
class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, CompoundStmt *Then, CompoundStmt *Else)
      : Stmt(StmtKind::If), Cond(Cond), Then(Then), Else(Else) {}

  Expr *cond() const { return Cond; }
  void setCond(Expr *E) { Cond = E; }
  CompoundStmt *thenBody() const { return Then; }
  CompoundStmt *elseBody() const { return Else; }
  void setElseBody(CompoundStmt *S) { Else = S; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Expr *Cond;
  CompoundStmt *Then;
  CompoundStmt *Else; // may be null
};

enum class CmpKind { LT, LE, GT, GE };
enum class StepKind { Add, Div };

/// Canonical counted loop:
///   for (int Iter = Init; Iter Cmp Bound; Iter = Iter [+|/] Step)
/// StepKind::Div supports the halving loops of the reduction kernel.
class ForStmt : public Stmt {
public:
  ForStmt(std::string IterName, Expr *Init, CmpKind Cmp, Expr *Bound,
          StepKind StepK, Expr *Step, CompoundStmt *Body)
      : Stmt(StmtKind::For), IterName(std::move(IterName)), Init(Init),
        Cmp(Cmp), Bound(Bound), StepK(StepK), Step(Step), Body(Body) {}

  const std::string &iterName() const { return IterName; }
  void setIterName(std::string N) { IterName = std::move(N); }
  Expr *init() const { return Init; }
  void setInit(Expr *E) { Init = E; }
  CmpKind cmp() const { return Cmp; }
  Expr *bound() const { return Bound; }
  void setBound(Expr *E) { Bound = E; }
  StepKind stepKind() const { return StepK; }
  Expr *step() const { return Step; }
  void setStep(Expr *E) { Step = E; }
  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }

  /// Interpreter scratch.
  mutable int IterSlot = -1;

private:
  std::string IterName;
  Expr *Init;
  CmpKind Cmp;
  Expr *Bound;
  StepKind StepK;
  Expr *Step;
  CompoundStmt *Body;
};

/// General condition-controlled loop: `while (Cond) Body`. Unlike the
/// canonical ForStmt there is no iterator or affine trip count, so every
/// analysis treats the body conservatively (unknown trip, data-dependent
/// guard); the transforms of Sections 3.2/3.3 never restructure one.
class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, CompoundStmt *Body)
      : Stmt(StmtKind::While), Cond(Cond), Body(Body) {}

  Expr *cond() const { return Cond; }
  void setCond(Expr *E) { Cond = E; }
  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  Expr *Cond;
  CompoundStmt *Body;
};

/// __syncthreads() (block barrier) or __globalSync() (grid barrier; the
/// paper supports the latter in naive kernels for reduction-style codes).
class SyncStmt : public Stmt {
public:
  explicit SyncStmt(bool IsGlobal) : Stmt(StmtKind::Sync), Global(IsGlobal) {}

  bool isGlobal() const { return Global; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Sync; }

private:
  bool Global;
};

} // namespace gpuc

#endif // GPUC_AST_STMT_H
