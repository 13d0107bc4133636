//===-- ast/ASTContext.h - Node ownership and factories ---------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns every AST node of a compilation and provides typed factory methods
/// with the dialect's implicit type rules (int op float -> float, compare
/// -> bool). Transformation passes allocate replacement nodes here.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_ASTCONTEXT_H
#define GPUC_AST_ASTCONTEXT_H

#include "ast/Stmt.h"

#include <memory>
#include <string>
#include <vector>

namespace gpuc {

class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  /// Allocates and owns a node of type \p T.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    auto Node = std::make_unique<T>(std::forward<ArgTs>(Args)...);
    T *Raw = Node.get();
    if constexpr (std::is_base_of_v<Expr, T>)
      Exprs.push_back(std::move(Node));
    else
      Stmts.push_back(std::move(Node));
    return Raw;
  }

  // -- Expression factories -----------------------------------------------

  IntLit *intLit(long long V) { return create<IntLit>(V); }
  FloatLit *floatLit(double V) { return create<FloatLit>(V); }
  VarRef *varRef(std::string Name, Type Ty) {
    return create<VarRef>(std::move(Name), Ty);
  }
  BuiltinRef *builtin(BuiltinId Id) { return create<BuiltinRef>(Id); }
  ArrayRef *arrayRef(std::string Base, std::vector<Expr *> Indices,
                     Type ElemTy, int VecWidth = 1) {
    return create<ArrayRef>(std::move(Base), std::move(Indices), ElemTy,
                            VecWidth);
  }
  Member *member(Expr *Base, int Field) { return create<Member>(Base, Field); }
  Call *call(std::string Callee, std::vector<Expr *> Args, Type Ty) {
    return create<Call>(std::move(Callee), std::move(Args), Ty);
  }

  /// Builds a binary expression, inferring the result type.
  Binary *bin(BinOp Op, Expr *LHS, Expr *RHS);
  Unary *neg(Expr *Sub) { return create<Unary>(UnOp::Neg, Sub, Sub->type()); }
  Unary *logicalNot(Expr *Sub) {
    return create<Unary>(UnOp::Not, Sub, Type::boolTy());
  }

  // Arithmetic sugar.
  Binary *add(Expr *L, Expr *R) { return bin(BinOp::Add, L, R); }
  Binary *sub(Expr *L, Expr *R) { return bin(BinOp::Sub, L, R); }
  Binary *mul(Expr *L, Expr *R) { return bin(BinOp::Mul, L, R); }
  Binary *div(Expr *L, Expr *R) { return bin(BinOp::Div, L, R); }
  Binary *rem(Expr *L, Expr *R) { return bin(BinOp::Rem, L, R); }
  Binary *lt(Expr *L, Expr *R) { return bin(BinOp::LT, L, R); }
  Binary *ge(Expr *L, Expr *R) { return bin(BinOp::GE, L, R); }
  Binary *eq(Expr *L, Expr *R) { return bin(BinOp::EQ, L, R); }
  Binary *land(Expr *L, Expr *R) { return bin(BinOp::LAnd, L, R); }

  /// idx + c, folding c == 0 away.
  Expr *addConst(Expr *E, long long C) {
    if (C == 0)
      return E;
    return bin(BinOp::Add, E, intLit(C));
  }

  // -- Statement factories -------------------------------------------------

  CompoundStmt *compound() { return create<CompoundStmt>(); }
  CompoundStmt *compound(std::vector<Stmt *> Body) {
    return create<CompoundStmt>(std::move(Body));
  }
  DeclStmt *declScalar(std::string Name, Type Ty, Expr *Init) {
    return create<DeclStmt>(std::move(Name), Ty, Init);
  }
  DeclStmt *declShared(std::string Name, Type Ty, std::vector<int> Dims) {
    return create<DeclStmt>(std::move(Name), Ty, std::move(Dims));
  }
  AssignStmt *assign(Expr *LHS, Expr *RHS) {
    return create<AssignStmt>(LHS, AssignOp::Assign, RHS);
  }
  AssignStmt *addAssign(Expr *LHS, Expr *RHS) {
    return create<AssignStmt>(LHS, AssignOp::AddAssign, RHS);
  }
  IfStmt *ifStmt(Expr *Cond, CompoundStmt *Then,
                 CompoundStmt *Else = nullptr) {
    return create<IfStmt>(Cond, Then, Else);
  }
  ForStmt *forUp(std::string Iter, Expr *Init, Expr *Bound, Expr *Step,
                 CompoundStmt *Body) {
    return create<ForStmt>(std::move(Iter), Init, CmpKind::LT, Bound,
                           StepKind::Add, Step, Body);
  }
  WhileStmt *whileStmt(Expr *Cond, CompoundStmt *Body) {
    return create<WhileStmt>(Cond, Body);
  }
  SyncStmt *syncThreads() { return create<SyncStmt>(/*IsGlobal=*/false); }
  SyncStmt *globalSync() { return create<SyncStmt>(/*IsGlobal=*/true); }

  /// Fresh name with a prefix, unique within this context.
  std::string freshName(const std::string &Prefix) {
    return Prefix + std::to_string(NextId++);
  }

private:
  std::vector<std::unique_ptr<Expr>> Exprs;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  unsigned NextId = 0;
};

} // namespace gpuc

#endif // GPUC_AST_ASTCONTEXT_H
