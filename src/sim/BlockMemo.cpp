//===-- sim/BlockMemo.cpp - Per-block statistics memo ---------------------===//

#include "sim/BlockMemo.h"

#include "ast/Walk.h"

#include <set>
#include <string>

using namespace gpuc;

namespace {

/// Rule (V): values loaded from memory stay data. A local is tainted once
/// any assignment to it may carry a loaded value (the divergence lattice's
/// Unknown, "through memory"), to a fixpoint; then no tainted expression
/// may steer control flow, pick an address or divide integers (a zero
/// divisor is a runtime fault).
bool loadedValuesStayData(const KernelFunction &K) {
  std::set<std::string> Tainted;
  auto FromMemory = [&](const Expr *E) {
    return E && anyExprIn(E, [&](const Expr *Sub) {
             if (isa<ArrayRef>(Sub))
               return true;
             const auto *V = dyn_cast<VarRef>(Sub);
             return V && Tainted.count(V->name()) > 0;
           });
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    auto Taint = [&](const std::string &Name, const Expr *Value) {
      if (FromMemory(Value) && Tainted.insert(Name).second)
        Changed = true;
    };
    forEachStmt(K.body(), [&](Stmt *S) {
      if (auto *D = dyn_cast<DeclStmt>(S)) {
        if (!D->isShared())
          Taint(D->name(), D->init());
      } else if (auto *A = dyn_cast<AssignStmt>(S)) {
        const Expr *Target = A->lhs();
        if (const auto *M = dyn_cast<Member>(Target))
          Target = M->baseExpr();
        if (const auto *V = dyn_cast<VarRef>(Target))
          Taint(V->name(), A->rhs());
      } else if (auto *F = dyn_cast<ForStmt>(S)) {
        Taint(F->iterName(), F->init());
        Taint(F->iterName(), F->step());
      }
    });
  }

  bool Clean = true;
  forEachStmt(K.body(), [&](Stmt *S) {
    if (auto *I = dyn_cast<IfStmt>(S))
      Clean &= !FromMemory(I->cond());
    else if (auto *W = dyn_cast<WhileStmt>(S))
      Clean &= !FromMemory(W->cond());
    else if (auto *F = dyn_cast<ForStmt>(S))
      Clean &= !Tainted.count(F->iterName()) && !FromMemory(F->bound());
  });
  forEachExpr(K.body(), [&](Expr *E) {
    if (auto *A = dyn_cast<ArrayRef>(E)) {
      for (const Expr *Index : A->indices())
        Clean &= !FromMemory(Index);
    } else if (auto *B = dyn_cast<Binary>(E)) {
      if ((B->op() == BinOp::Div || B->op() == BinOp::Rem) &&
          B->type().isInt())
        Clean &= !FromMemory(B->rhs());
    }
  });
  return Clean;
}

/// Rule (D): no global array is both read and written. A plain store's
/// target is the only access that does not read.
bool noGlobalArrayReadAndWritten(const KernelFunction &K) {
  std::set<const Expr *> PlainStores;
  std::set<std::string> Read, Written;
  forEachStmt(K.body(), [&](Stmt *S) {
    auto *A = dyn_cast<AssignStmt>(S);
    if (!A)
      return;
    const Expr *Target = A->lhs();
    if (const auto *M = dyn_cast<Member>(Target))
      Target = M->baseExpr(); // a lane store reads the other lanes
    else if (A->op() == AssignOp::Assign)
      PlainStores.insert(Target);
    if (const auto *R = dyn_cast<ArrayRef>(Target))
      Written.insert(R->base());
  });
  forEachExpr(K.body(), [&](Expr *E) {
    if (auto *R = dyn_cast<ArrayRef>(E))
      if (!PlainStores.count(E))
        Read.insert(R->base());
  });
  for (const std::string &Name : Written) {
    const ParamDecl *P = K.findParam(Name);
    if (P && P->IsArray && Read.count(Name))
      return false;
  }
  return true;
}

} // namespace

bool BlockMemo::appliesTo(const KernelFunction &K) {
  return loadedValuesStayData(K) || noGlobalArrayReadAndWritten(K);
}

bool BlockMemo::lookup(const Key &K, SimStats &Out) const {
  auto It = Blocks.find(K);
  if (It == Blocks.end())
    return false;
  Out = It->second;
  return true;
}

void BlockMemo::insert(const Key &K, const SimStats &S) {
  Blocks.try_emplace(K, S);
}
