//===-- ast/Builder.cpp - Fluent kernel construction API ------------------===//

#include "ast/Builder.h"

#include <cassert>

using namespace gpuc;

KernelBuilder::KernelBuilder(Module &M, std::string KernelName)
    : M(M), Ctx(M.context()) {
  auto *Body = Ctx.compound();
  K = M.createKernel(std::move(KernelName), Body);
  Scopes.push_back(Body);
}

void KernelBuilder::arrayParam(const std::string &Name, Type ElemTy,
                               std::vector<long long> Dims, bool IsOutput) {
  ParamDecl P;
  P.Name = Name;
  P.ElemTy = ElemTy;
  P.IsArray = true;
  P.Dims = std::move(Dims);
  P.IsOutput = IsOutput;
  K->params().push_back(std::move(P));
}

void KernelBuilder::scalarParam(const std::string &Name, Type Ty,
                                long long Binding) {
  ParamDecl P;
  P.Name = Name;
  P.ElemTy = Ty;
  P.IsArray = false;
  K->params().push_back(std::move(P));
  K->bindScalar(Name, Binding);
}

Expr *KernelBuilder::v(const std::string &Name, Type Ty) {
  return Ctx.varRef(Name, Ty);
}

Type KernelBuilder::lookupElemTy(const std::string &Base) const {
  if (const ParamDecl *P = K->findParam(Base))
    return P->ElemTy;
  for (const auto &[Name, Ty] : SharedTys)
    if (Name == Base)
      return Ty;
  return Type::floatTy();
}

Expr *KernelBuilder::at(const std::string &Base, std::vector<Expr *> Indices) {
  return Ctx.arrayRef(Base, std::move(Indices), lookupElemTy(Base));
}

void KernelBuilder::decl(const std::string &Name, Type Ty, Expr *Init) {
  top()->append(Ctx.declScalar(Name, Ty, Init));
}

void KernelBuilder::declShared(const std::string &Name, Type Ty,
                               std::vector<int> Dims) {
  SharedTys.emplace_back(Name, Ty);
  top()->append(Ctx.declShared(Name, Ty, std::move(Dims)));
}

void KernelBuilder::assign(Expr *LHS, Expr *RHS) {
  top()->append(Ctx.assign(LHS, RHS));
}

void KernelBuilder::addAssign(Expr *LHS, Expr *RHS) {
  top()->append(Ctx.addAssign(LHS, RHS));
}

void KernelBuilder::beginFor(const std::string &Iter, Expr *Init, Expr *Bound,
                             Expr *Step) {
  auto *Body = Ctx.compound();
  auto *F = Ctx.forUp(Iter, Init, Bound, Step, Body);
  top()->append(F);
  Frames.push_back({OpenFrame::For, F});
  Scopes.push_back(Body);
}

void KernelBuilder::beginForHalving(const std::string &Iter, Expr *Init) {
  auto *Body = Ctx.compound();
  auto *F = Ctx.create<ForStmt>(Iter, Init, CmpKind::GE, Ctx.intLit(1),
                                StepKind::Div, Ctx.intLit(2), Body);
  top()->append(F);
  Frames.push_back({OpenFrame::For, F});
  Scopes.push_back(Body);
}

void KernelBuilder::endFor() {
  assert(!Frames.empty() && Frames.back().Kind == OpenFrame::For &&
         "endFor without matching beginFor");
  Frames.pop_back();
  Scopes.pop_back();
}

void KernelBuilder::beginIf(Expr *Cond) {
  auto *Then = Ctx.compound();
  auto *If = Ctx.ifStmt(Cond, Then);
  top()->append(If);
  Frames.push_back({OpenFrame::If, If});
  Scopes.push_back(Then);
}

void KernelBuilder::beginElse() {
  assert(!Frames.empty() && Frames.back().Kind == OpenFrame::If &&
         "beginElse without open if");
  auto *If = cast<IfStmt>(Frames.back().S);
  auto *Else = Ctx.compound();
  If->setElseBody(Else);
  Frames.back().Kind = OpenFrame::Else;
  Scopes.pop_back();
  Scopes.push_back(Else);
}

void KernelBuilder::endIf() {
  assert(!Frames.empty() &&
         (Frames.back().Kind == OpenFrame::If ||
          Frames.back().Kind == OpenFrame::Else) &&
         "endIf without matching beginIf");
  Frames.pop_back();
  Scopes.pop_back();
}

void KernelBuilder::syncThreads() { top()->append(Ctx.syncThreads()); }

void KernelBuilder::globalSync() { top()->append(Ctx.globalSync()); }

KernelFunction *KernelBuilder::finish(int BlockDimX, int BlockDimY,
                                      long long DomainX, long long DomainY) {
  assert(Frames.empty() && "unterminated for/if scope");
  K->setWorkDomain(DomainX, DomainY);
  LaunchConfig &L = K->launch();
  L.BlockDimX = BlockDimX;
  L.BlockDimY = BlockDimY;
  L.GridDimX = (DomainX + BlockDimX - 1) / BlockDimX;
  L.GridDimY = (DomainY + BlockDimY - 1) / BlockDimY;
  return K;
}
