//===-- ast/Expr.h - Expression nodes ---------------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression nodes of the naive-kernel dialect. Nodes are owned by an
/// ASTContext; transformations mutate children in place or build new nodes.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_EXPR_H
#define GPUC_AST_EXPR_H

#include "ast/Type.h"
#include "support/SourceLocation.h"

#include <cassert>
#include <string>
#include <vector>

namespace gpuc {

enum class ExprKind {
  IntLit,
  FloatLit,
  VarRef,
  BuiltinRef,
  ArrayRef,
  Binary,
  Unary,
  Call,
  Member
};

/// The predefined indices of the programming model (paper Section 2):
/// absolute thread positions idx/idy, in-block positions tidx/tidy, block
/// ids bidx/bidy, and the launch dimensions.
enum class BuiltinId {
  Idx,
  Idy,
  Tidx,
  Tidy,
  Bidx,
  Bidy,
  BlockDimX,
  BlockDimY,
  GridDimX,
  GridDimY
};

/// CUDA spelling of a builtin ("idx", "tidx", ...).
const char *builtinName(BuiltinId Id);

enum class BinOp {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  LT,
  GT,
  LE,
  GE,
  EQ,
  NE,
  LAnd,
  LOr
};

enum class UnOp { Neg, Not };

class Expr {
public:
  virtual ~Expr() = default;

  ExprKind kind() const { return K; }
  Type type() const { return Ty; }
  void setType(Type T) { Ty = T; }
  SourceLocation loc() const { return Loc; }

protected:
  Expr(ExprKind K, Type Ty) : K(K), Ty(Ty) {}

private:
  ExprKind K;
  Type Ty;
  SourceLocation Loc;
};

/// Integer literal.
class IntLit : public Expr {
public:
  explicit IntLit(long long Value) : Expr(ExprKind::IntLit, Type::intTy()),
                                     Value(Value) {}
  long long value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }

private:
  long long Value;
};

/// Floating-point literal.
class FloatLit : public Expr {
public:
  explicit FloatLit(double Value)
      : Expr(ExprKind::FloatLit, Type::floatTy()), Value(Value) {}
  double value() const { return Value; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FloatLit;
  }

private:
  double Value;
};

/// Reference to a kernel-local scalar variable or a scalar parameter,
/// by name. The interpreter caches a resolved frame slot here.
class VarRef : public Expr {
public:
  VarRef(std::string Name, Type Ty)
      : Expr(ExprKind::VarRef, Ty), Name(std::move(Name)) {}
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::VarRef; }

  /// Interpreter scratch: resolved frame slot / scalar-param index.
  mutable int ResolvedSlot = -1;
  mutable int ResolvedScalarParam = -1;

private:
  std::string Name;
};

/// Reference to one of the predefined indices (idx, tidx, bidx, ...).
class BuiltinRef : public Expr {
public:
  explicit BuiltinRef(BuiltinId Id)
      : Expr(ExprKind::BuiltinRef, Type::intTy()), Id(Id) {}
  BuiltinId id() const { return Id; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::BuiltinRef;
  }

private:
  BuiltinId Id;
};

/// A subscripted array access `base[i0][i1]...`. The base names either a
/// global-memory array parameter or a __shared__ array. When VecWidth > 1
/// the access reinterprets a float array as float2/float4 (the result of
/// the vectorization step, Section 3.1) and the innermost index is in
/// vector-element units.
class ArrayRef : public Expr {
public:
  ArrayRef(std::string Base, std::vector<Expr *> Indices, Type ElemTy,
           int VecWidth = 1)
      : Expr(ExprKind::ArrayRef, ElemTy), Base(std::move(Base)),
        Indices(std::move(Indices)), VecWidth(VecWidth) {}

  const std::string &base() const { return Base; }
  void setBase(std::string B) { Base = std::move(B); }
  const std::vector<Expr *> &indices() const { return Indices; }
  std::vector<Expr *> &indices() { return Indices; }
  unsigned numIndices() const { return Indices.size(); }
  Expr *index(unsigned I) const {
    assert(I < Indices.size() && "index out of range");
    return Indices[I];
  }
  void setIndex(unsigned I, Expr *E) { Indices[I] = E; }

  int vecWidth() const { return VecWidth; }
  void setVecWidth(int W) { VecWidth = W; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ArrayRef;
  }

  /// Interpreter scratch: global-buffer index or shared-array id.
  mutable int ResolvedGlobal = -1;
  mutable int ResolvedShared = -1;

private:
  std::string Base;
  std::vector<Expr *> Indices;
  int VecWidth;
};

/// Binary operation.
class Binary : public Expr {
public:
  Binary(BinOp Op, Expr *LHS, Expr *RHS, Type Ty)
      : Expr(ExprKind::Binary, Ty), Op(Op), LHS(LHS), RHS(RHS) {}
  BinOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// Unary operation.
class Unary : public Expr {
public:
  Unary(UnOp Op, Expr *Sub, Type Ty)
      : Expr(ExprKind::Unary, Ty), Op(Op), Sub(Sub) {}
  UnOp op() const { return Op; }
  Expr *sub() const { return Sub; }
  void setSub(Expr *E) { Sub = E; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  UnOp Op;
  Expr *Sub;
};

/// Call to a math builtin (sqrtf, fabsf, fminf, fmaxf, expf, sinf, cosf).
class Call : public Expr {
public:
  Call(std::string Callee, std::vector<Expr *> Args, Type Ty)
      : Expr(ExprKind::Call, Ty), Callee(std::move(Callee)),
        Args(std::move(Args)) {}
  const std::string &callee() const { return Callee; }
  const std::vector<Expr *> &args() const { return Args; }
  std::vector<Expr *> &args() { return Args; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

private:
  std::string Callee;
  std::vector<Expr *> Args;
};

/// Vector-component access `base.x` / `.y` / `.z` / `.w` (field 0..3).
class Member : public Expr {
public:
  Member(Expr *BaseE, int Field)
      : Expr(ExprKind::Member, Type::floatTy()), BaseE(BaseE), Field(Field) {
    assert(Field >= 0 && Field < 4 && "bad vector field");
  }
  Expr *baseExpr() const { return BaseE; }
  void setBaseExpr(Expr *E) { BaseE = E; }
  int field() const { return Field; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Member; }

private:
  Expr *BaseE;
  int Field;
};

/// LLVM-style isa/cast helpers keyed on the node kind.
template <typename To, typename From> bool isa(const From *Node) {
  assert(Node && "isa on null node");
  return To::classof(Node);
}

template <typename To, typename From> To *cast(From *Node) {
  assert(isa<To>(Node) && "cast to wrong node kind");
  return static_cast<To *>(Node);
}

template <typename To, typename From> const To *cast(const From *Node) {
  assert(isa<To>(Node) && "cast to wrong node kind");
  return static_cast<const To *>(Node);
}

template <typename To, typename From> To *dyn_cast(From *Node) {
  return Node && To::classof(Node) ? static_cast<To *>(Node) : nullptr;
}

template <typename To, typename From> const To *dyn_cast(const From *Node) {
  return Node && To::classof(Node) ? static_cast<const To *>(Node) : nullptr;
}

} // namespace gpuc

#endif // GPUC_AST_EXPR_H
