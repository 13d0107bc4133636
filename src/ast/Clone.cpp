//===-- ast/Clone.cpp - Deep copying of AST nodes -------------------------===//

#include "ast/Clone.h"

using namespace gpuc;

Expr *gpuc::cloneExpr(ASTContext &Ctx, const Expr *E) {
  if (!E)
    return nullptr;
  switch (E->kind()) {
  case ExprKind::IntLit:
    return Ctx.intLit(cast<IntLit>(E)->value());
  case ExprKind::FloatLit:
    return Ctx.floatLit(cast<FloatLit>(E)->value());
  case ExprKind::VarRef: {
    const auto *V = cast<VarRef>(E);
    return Ctx.varRef(V->name(), V->type());
  }
  case ExprKind::BuiltinRef:
    return Ctx.builtin(cast<BuiltinRef>(E)->id());
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRef>(E);
    std::vector<Expr *> Indices;
    Indices.reserve(A->numIndices());
    for (const Expr *I : A->indices())
      Indices.push_back(cloneExpr(Ctx, I));
    return Ctx.arrayRef(A->base(), std::move(Indices), A->type(),
                        A->vecWidth());
  }
  case ExprKind::Binary: {
    const auto *B = cast<Binary>(E);
    return Ctx.create<Binary>(B->op(), cloneExpr(Ctx, B->lhs()),
                              cloneExpr(Ctx, B->rhs()), B->type());
  }
  case ExprKind::Unary: {
    const auto *U = cast<Unary>(E);
    return Ctx.create<Unary>(U->op(), cloneExpr(Ctx, U->sub()), U->type());
  }
  case ExprKind::Call: {
    const auto *C = cast<Call>(E);
    std::vector<Expr *> Args;
    Args.reserve(C->args().size());
    for (const Expr *A : C->args())
      Args.push_back(cloneExpr(Ctx, A));
    return Ctx.call(C->callee(), std::move(Args), C->type());
  }
  case ExprKind::Member: {
    const auto *M = cast<Member>(E);
    return Ctx.member(cloneExpr(Ctx, M->baseExpr()), M->field());
  }
  }
  return nullptr;
}

Stmt *gpuc::cloneStmt(ASTContext &Ctx, const Stmt *S) {
  if (!S)
    return nullptr;
  switch (S->kind()) {
  case StmtKind::Compound:
    return cloneCompound(Ctx, cast<CompoundStmt>(S));
  case StmtKind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    if (D->isShared())
      return Ctx.declShared(D->name(), D->declType(), D->sharedDims());
    return Ctx.declScalar(D->name(), D->declType(),
                          cloneExpr(Ctx, D->init()));
  }
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    return Ctx.create<AssignStmt>(cloneExpr(Ctx, A->lhs()), A->op(),
                                  cloneExpr(Ctx, A->rhs()));
  }
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    return Ctx.ifStmt(cloneExpr(Ctx, If->cond()),
                      cloneCompound(Ctx, If->thenBody()),
                      cloneCompound(Ctx, If->elseBody()));
  }
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(S);
    return Ctx.create<ForStmt>(F->iterName(), cloneExpr(Ctx, F->init()),
                               F->cmp(), cloneExpr(Ctx, F->bound()),
                               F->stepKind(), cloneExpr(Ctx, F->step()),
                               cloneCompound(Ctx, F->body()));
  }
  case StmtKind::While: {
    const auto *W = cast<WhileStmt>(S);
    return Ctx.whileStmt(cloneExpr(Ctx, W->cond()),
                         cloneCompound(Ctx, W->body()));
  }
  case StmtKind::Sync:
    return Ctx.create<SyncStmt>(cast<SyncStmt>(S)->isGlobal());
  }
  return nullptr;
}

CompoundStmt *gpuc::cloneCompound(ASTContext &Ctx, const CompoundStmt *S) {
  if (!S)
    return nullptr;
  auto *New = Ctx.compound();
  for (const Stmt *Child : S->body())
    New->append(cloneStmt(Ctx, Child));
  return New;
}

KernelFunction *gpuc::shareKernel(Module &M, const KernelFunction &K) {
  auto *New = M.createKernel(K.name(), K.body());
  New->params() = K.params();
  New->launch() = K.launch();
  New->setWorkDomain(K.workDomainX(), K.workDomainY());
  for (const auto &[Name, V] : K.scalarBindings())
    New->bindScalar(Name, V);
  return New;
}

KernelFunction *gpuc::cloneKernel(Module &M, const KernelFunction *K,
                                  std::string NewName) {
  KernelFunction *New = shareKernel(M, *K);
  New->setName(std::move(NewName));
  New->setBody(cloneCompound(M.context(), K->body()));
  return New;
}
