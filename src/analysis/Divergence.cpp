//===-- analysis/Divergence.cpp - Thread-divergence lattice ---------------===//

#include "analysis/Divergence.h"

#include <algorithm>

using namespace gpuc;

const char *gpuc::divergenceName(Divergence D) {
  switch (D) {
  case Divergence::Uniform:
    return "uniform";
  case Divergence::TidDependent:
    return "tid-dependent";
  case Divergence::Unknown:
    return "unknown";
  }
  return "?";
}

Divergence gpuc::joinDiv(Divergence A, Divergence B) {
  return static_cast<Divergence>(
      std::max(static_cast<int>(A), static_cast<int>(B)));
}

DivFact gpuc::joinDiv(const DivFact &A, const DivFact &B) {
  return {joinDiv(A.Thread, B.Thread), joinDiv(A.Block, B.Block)};
}

DivFact gpuc::divergenceOf(const Expr *E, const KernelFunction &K,
                           const DivEnv &Env) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::FloatLit:
    return {};
  case ExprKind::BuiltinRef:
    switch (cast<BuiltinRef>(E)->id()) {
    case BuiltinId::Tidx:
    case BuiltinId::Tidy:
      return {Divergence::TidDependent, Divergence::Uniform};
    case BuiltinId::Bidx:
    case BuiltinId::Bidy:
      return {Divergence::Uniform, Divergence::TidDependent};
    case BuiltinId::Idx:
    case BuiltinId::Idy:
      return {Divergence::TidDependent, Divergence::TidDependent};
    case BuiltinId::BlockDimX:
    case BuiltinId::BlockDimY:
    case BuiltinId::GridDimX:
    case BuiltinId::GridDimY:
      return {};
    }
    return {Divergence::Unknown, Divergence::Unknown};
  case ExprKind::VarRef: {
    const auto *V = cast<VarRef>(E);
    if (K.findParam(V->name()))
      return {}; // scalar parameters are launch-wide constants
    if (const DivFact *F = Env.lookup(V->name()))
      return *F;
    return {Divergence::Unknown, Divergence::Unknown};
  }
  case ExprKind::ArrayRef:
    // The loaded value may have been written by any thread of any block.
    return {Divergence::Unknown, Divergence::Unknown};
  case ExprKind::Binary: {
    const auto *B = cast<Binary>(E);
    return joinDiv(divergenceOf(B->lhs(), K, Env),
                   divergenceOf(B->rhs(), K, Env));
  }
  case ExprKind::Unary:
    return divergenceOf(cast<Unary>(E)->sub(), K, Env);
  case ExprKind::Call: {
    DivFact D;
    for (const Expr *A : cast<Call>(E)->args())
      D = joinDiv(D, divergenceOf(A, K, Env));
    return D;
  }
  case ExprKind::Member:
    return divergenceOf(cast<Member>(E)->baseExpr(), K, Env);
  }
  return {Divergence::Unknown, Divergence::Unknown};
}
