//===-- ast/Verifier.cpp - Structural kernel validation -------------------===//

#include "ast/Verifier.h"

#include "ast/Walk.h"
#include "support/StringUtils.h"

#include <map>
#include <set>

using namespace gpuc;

namespace {

class Verifier {
public:
  explicit Verifier(const KernelFunction &K) : K(K) {}

  std::vector<std::string> run() {
    collectSymbols();
    checkLaunch();
    walk(K.body());
    return std::move(Violations);
  }

private:
  void bad(std::string Message) { Violations.push_back(std::move(Message)); }

  void collectSymbols() {
    for (const ParamDecl &P : K.params()) {
      if (P.IsArray) {
        if (P.Dims.empty())
          bad(strFormat("array parameter '%s' has no dimensions",
                        P.Name.c_str()));
        ArrayDims[P.Name] = P.Dims.size();
      } else {
        Scalars.insert(P.Name);
      }
    }
    forEachStmt(const_cast<CompoundStmt *>(K.body()), [&](Stmt *S) {
      if (auto *D = dyn_cast<DeclStmt>(S)) {
        if (D->isShared()) {
          ArrayDims[D->name()] = D->sharedDims().size();
          for (int Dim : D->sharedDims())
            if (Dim <= 0)
              bad(strFormat("shared array '%s' has non-positive dimension",
                            D->name().c_str()));
        } else {
          Locals.insert(D->name());
        }
      } else if (auto *F = dyn_cast<ForStmt>(S)) {
        Locals.insert(F->iterName());
      }
    });
  }

  void checkLaunch() {
    const LaunchConfig &L = K.launch();
    if (L.BlockDimX <= 0 || L.BlockDimY <= 0 || L.GridDimX <= 0 ||
        L.GridDimY <= 0)
      bad("launch configuration has non-positive dimensions");
    if (L.threadsPerBlock() > 1024)
      bad(strFormat("block of %lld threads exceeds hardware limits",
                    L.threadsPerBlock()));
  }

  void checkExpr(const Expr *E) {
    forEachExprIn(const_cast<Expr *>(E), [&](Expr *Sub) {
      if (auto *V = dyn_cast<VarRef>(Sub)) {
        if (!Locals.count(V->name()) && !Scalars.count(V->name()))
          bad(strFormat("reference to undeclared variable '%s'",
                        V->name().c_str()));
      } else if (auto *A = dyn_cast<ArrayRef>(Sub)) {
        auto It = ArrayDims.find(A->base());
        if (It == ArrayDims.end()) {
          bad(strFormat("reference to unknown array '%s'",
                        A->base().c_str()));
          return;
        }
        size_t Want = A->vecWidth() > 1 ? 1 : It->second;
        if (A->numIndices() != Want)
          bad(strFormat("array '%s' subscripted %u times, expected %zu",
                        A->base().c_str(), A->numIndices(), Want));
      }
    });
  }

  void walk(const CompoundStmt *C) {
    if (!C)
      return;
    for (const Stmt *S : C->body()) {
      switch (S->kind()) {
      case StmtKind::Compound:
        walk(cast<CompoundStmt>(S));
        break;
      case StmtKind::Decl: {
        const auto *D = cast<DeclStmt>(S);
        if (D->init())
          checkExpr(D->init());
        break;
      }
      case StmtKind::Assign: {
        const auto *A = cast<AssignStmt>(S);
        const Expr *LHS = A->lhs();
        if (const auto *V = dyn_cast<VarRef>(LHS)) {
          if (Scalars.count(V->name()))
            bad(strFormat("store to scalar parameter '%s'",
                          V->name().c_str()));
        } else if (isa<ArrayRef>(LHS)) {
          // fine
        } else if (const auto *Mem = dyn_cast<Member>(LHS)) {
          if (!isa<VarRef>(Mem->baseExpr()))
            bad("vector-field store target must be a variable");
        } else {
          bad("assignment target must be a variable, array or field");
        }
        checkExpr(A->lhs());
        checkExpr(A->rhs());
        break;
      }
      case StmtKind::If: {
        const auto *If = cast<IfStmt>(S);
        checkExpr(If->cond());
        walk(If->thenBody());
        walk(If->elseBody());
        break;
      }
      case StmtKind::For: {
        const auto *F = cast<ForStmt>(S);
        checkExpr(F->init());
        checkExpr(F->bound());
        checkExpr(F->step());
        walk(F->body());
        break;
      }
      case StmtKind::While: {
        const auto *W = cast<WhileStmt>(S);
        checkExpr(W->cond());
        walk(W->body());
        break;
      }
      case StmtKind::Sync:
        // Barrier uniformity is a semantic property, proven (or refuted)
        // by the dataflow engine's divergence lattice (analysis/Dataflow).
        break;
      }
    }
  }

  const KernelFunction &K;
  std::set<std::string> Locals;
  std::set<std::string> Scalars;
  std::map<std::string, size_t> ArrayDims;
  std::vector<std::string> Violations;
};

} // namespace

std::vector<std::string> gpuc::verifyKernel(const KernelFunction &K) {
  return Verifier(K).run();
}
