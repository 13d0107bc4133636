//===-- analysis/SharedAccess.cpp - Barrier phases and shared accesses ----===//

#include "analysis/SharedAccess.h"

#include "analysis/Dataflow.h"
#include "ast/Walk.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace gpuc;

namespace {

/// Max unrolled iterations of a loop containing a barrier.
constexpr int SyncLoopCap = 256;
/// Max enumerated values per barrier-free loop iterator.
constexpr int FreeLoopValueCap = 18;

bool containsBarrier(const Stmt *S) {
  bool Found = false;
  forEachStmt(const_cast<Stmt *>(S), [&](Stmt *Sub) {
    if (isa<SyncStmt>(Sub))
      Found = true;
  });
  return Found;
}

/// Substitutes concrete iterator bindings into \p A's loop terms.
void substituteEnv(AffineExpr &A, const std::map<std::string, long long> &Env) {
  for (const auto &[Name, Value] : Env) {
    auto It = A.LoopCoeffs.find(Name);
    if (It == A.LoopCoeffs.end())
      continue;
    A.Const += It->second * Value;
    A.LoopCoeffs.erase(It);
  }
}

/// Builds the affine form of \p E and folds in \p Env. Fails for
/// thread-dependent or nonlinear expressions.
bool buildConstAffine(const Expr *E, const KernelFunction &K,
                      const std::map<std::string, long long> &Env,
                      long long &Out) {
  AffineExpr A;
  if (!buildAffine(E, K, A))
    return false;
  substituteEnv(A, Env);
  if (!A.isConstant())
    return false;
  Out = A.Const;
  return true;
}

class PhaseBuilder {
public:
  explicit PhaseBuilder(const KernelFunction &K) : K(K) {
    for (const DeclStmt *D : K.sharedDecls())
      SharedByName[D->name()] = D;
  }

  PhaseModel run() {
    walkStmt(K.body());
    Model.NumPhases = Phase + 1;
    return std::move(Model);
  }

private:
  void problem(std::string Message, bool Fatal) {
    if (Fatal)
      Model.Analyzable = false;
    Model.Problems.push_back(std::move(Message));
  }

  void walkStmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Compound:
      for (const Stmt *Child : cast<CompoundStmt>(S)->body())
        walkStmt(Child);
      return;
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(S);
      if (D->init())
        collectReads(D->init());
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (const auto *Ref = dyn_cast<ArrayRef>(A->lhs())) {
        if (SharedByName.count(Ref->base())) {
          addAccess(Ref, /*IsWrite=*/true,
                    A->op() == AssignOp::Assign ? A->rhs() : nullptr);
          if (A->op() != AssignOp::Assign)
            addAccess(Ref, /*IsWrite=*/false);
        }
        for (const Expr *I : Ref->indices())
          collectReads(I);
      } else {
        collectReads(A->lhs());
      }
      collectReads(A->rhs());
      return;
    }
    case StmtKind::If:
      walkIf(cast<IfStmt>(S));
      return;
    case StmtKind::For:
      walkFor(cast<ForStmt>(S));
      return;
    case StmtKind::While:
      walkWhile(cast<WhileStmt>(S));
      return;
    case StmtKind::Sync:
      if (!GuardStack.empty() || UnknownGuardDepth > 0)
        problem("barrier under divergent control flow; phases cannot be "
                "delimited",
                /*Fatal=*/true);
      if (!FreeLoops.empty())
        problem(strFormat("barrier inside loop '%s' whose trip count was not "
                          "resolved",
                          FreeLoops.back().Name.c_str()),
                /*Fatal=*/true);
      ++Phase;
      return;
    }
  }

  void walkIf(const IfStmt *If) {
    collectReads(If->cond());
    std::vector<AccessGuard> ThenGuards, ElseGuards;
    bool ThenExact = buildGuards(If->cond(), /*Negate=*/false, ThenGuards);
    bool ElseExact = buildGuards(If->cond(), /*Negate=*/true, ElseGuards);

    size_t Mark = GuardStack.size();
    if (ThenExact)
      GuardStack.insert(GuardStack.end(), ThenGuards.begin(),
                        ThenGuards.end());
    else
      ++UnknownGuardDepth;
    walkStmt(If->thenBody());
    GuardStack.resize(Mark);
    if (!ThenExact)
      --UnknownGuardDepth;

    if (!If->elseBody())
      return;
    if (ElseExact)
      GuardStack.insert(GuardStack.end(), ElseGuards.begin(),
                        ElseGuards.end());
    else
      ++UnknownGuardDepth;
    walkStmt(If->elseBody());
    GuardStack.resize(Mark);
    if (!ElseExact)
      --UnknownGuardDepth;
  }

  /// Converts \p Cond (or its negation) into conjunctive affine guards.
  /// \returns false when the condition is not exactly representable; the
  /// caller then treats the branch as may-taken.
  bool buildGuards(const Expr *Cond, bool Negate,
                   std::vector<AccessGuard> &Out) {
    if (const auto *B = dyn_cast<Binary>(Cond)) {
      // De Morgan: !(a && b) = !a || !b. A conjunction stays exact
      // unnegated; a disjunction stays exact negated.
      if (B->op() == BinOp::LAnd && !Negate)
        return buildGuards(B->lhs(), false, Out) &&
               buildGuards(B->rhs(), false, Out);
      if (B->op() == BinOp::LOr && Negate)
        return buildGuards(B->lhs(), true, Out) &&
               buildGuards(B->rhs(), true, Out);
      AffineExpr L, R;
      if (!isCmpOp(B->op()) || !buildAffine(B->lhs(), K, L) ||
          !buildAffine(B->rhs(), K, R))
        return false;
      AccessGuard G;
      G.Delta = L;
      G.Delta -= R;
      substituteEnv(G.Delta, SyncIters);
      G.Cmp = Negate ? negateCmp(B->op()) : B->op();
      Out.push_back(std::move(G));
      return true;
    }
    if (const auto *U = dyn_cast<Unary>(Cond))
      if (U->op() == UnOp::Not)
        return buildGuards(U->sub(), !Negate, Out);
    return false;
  }

  void walkFor(const ForStmt *F) {
    collectReads(F->init());
    collectReads(F->bound());
    collectReads(F->step());
    if (!containsBarrier(F->body())) {
      FreeLoops.push_back(
          enumerateLoopValues(F, K, SyncIters, FreeLoopValueCap));
      walkStmt(F->body());
      FreeLoops.pop_back();
      return;
    }

    // A loop containing a barrier: unroll it with concrete iterator values
    // so phases advance across iterations.
    if (!GuardStack.empty() || UnknownGuardDepth > 0 || !FreeLoops.empty()) {
      problem(strFormat("loop '%s' contains a barrier under divergent or "
                        "unresolved control flow",
                        F->iterName().c_str()),
              /*Fatal=*/true);
      walkStmt(F->body()); // still collect accesses and count phases once
      return;
    }
    EnumLoop L = enumerateLoopValues(F, K, SyncIters, SyncLoopCap);
    if (!L.Resolved) {
      problem(strFormat("cannot resolve trip count of loop '%s' containing "
                        "a barrier (thread-dependent or data-dependent "
                        "bounds?)",
                        F->iterName().c_str()),
              /*Fatal=*/true);
      walkStmt(F->body());
      return;
    }
    if (L.Capped)
      problem(strFormat("loop '%s' containing a barrier unrolled for its "
                        "first %d iterations only",
                        F->iterName().c_str(), SyncLoopCap),
              /*Fatal=*/false);
    for (long long V : L.Values) {
      SyncIters[F->iterName()] = V;
      walkStmt(F->body());
    }
    SyncIters.erase(F->iterName());
  }

  void walkWhile(const WhileStmt *W) {
    collectReads(W->cond());
    if (containsBarrier(W->body())) {
      // A while's trip count is condition-controlled and in general
      // thread-dependent; no symbolic unrolling is possible, so barriers
      // inside defeat phase delimitation outright.
      problem("while loop contains a barrier; trip count is not statically "
              "analyzable",
              /*Fatal=*/true);
      walkStmt(W->body()); // still collect accesses once
      return;
    }
    // Body accesses execute only while the (unmodelled) condition holds:
    // treat them as under an unknown guard, over-approximating may-access.
    ++UnknownGuardDepth;
    walkStmt(W->body());
    --UnknownGuardDepth;
  }

  void collectReads(const Expr *E) {
    if (!E)
      return;
    forEachExprIn(const_cast<Expr *>(E), [&](Expr *Sub) {
      if (const auto *Ref = dyn_cast<ArrayRef>(Sub))
        if (SharedByName.count(Ref->base()))
          addAccess(Ref, /*IsWrite=*/false);
    });
  }

  /// Captures the value signature of a plain staging store whose RHS is a
  /// single global-array load: same source element implies same stored
  /// value, so overlapping writes with equal signatures are benign.
  void buildSrcSignature(const Expr *RHS, SharedAccess &A) {
    const auto *Src = dyn_cast<ArrayRef>(RHS);
    if (!Src || SharedByName.count(Src->base()) || Src->vecWidth() > 1)
      return;
    const ParamDecl *P = K.findParam(Src->base());
    if (!P || !P->IsArray || Src->numIndices() != P->Dims.size())
      return;
    std::vector<long long> Strides(P->Dims.size(), 1);
    for (int I = static_cast<int>(P->Dims.size()) - 2; I >= 0; --I)
      Strides[I] = Strides[I + 1] * P->Dims[I + 1];
    AffineExpr Flat;
    for (size_t I = 0; I < P->Dims.size(); ++I) {
      AffineExpr Dim;
      if (!buildAffine(Src->index(I), K, Dim))
        return;
      substituteEnv(Dim, SyncIters);
      Dim *= Strides[I];
      Flat += Dim;
    }
    A.HasSrc = true;
    A.SrcArray = Src->base();
    A.SrcAddr = Flat;
  }

  void addAccess(const ArrayRef *Ref, bool IsWrite,
                 const Expr *StoreRHS = nullptr) {
    const DeclStmt *D = SharedByName[Ref->base()];
    SharedAccess A;
    A.Ref = Ref;
    A.Decl = D;
    A.IsWrite = IsWrite;
    A.Phase = Phase;
    A.Loops = FreeLoops;
    A.Guards = GuardStack;
    A.UnknownGuard = UnknownGuardDepth > 0;
    A.Loc = Ref->loc();
    if (IsWrite && StoreRHS)
      buildSrcSignature(StoreRHS, A);

    const int DeclLanes = D->declType().vectorWidth();
    A.Lanes = Ref->type().isFloatVector() ? Ref->type().vectorWidth() : 1;
    if (Ref->vecWidth() > 1) {
      // Reinterpreted flat vector view: one index in vector-element units.
      AffineExpr Idx;
      if (Ref->numIndices() == 1 && buildAffine(Ref->index(0), K, Idx)) {
        Idx *= Ref->vecWidth();
        substituteEnv(Idx, SyncIters);
        A.FlatFloat = Idx;
        A.Resolved = true;
      }
      Model.Accesses.push_back(std::move(A));
      return;
    }

    const std::vector<int> &Dims = D->sharedDims();
    if (Ref->numIndices() != Dims.size()) {
      Model.Accesses.push_back(std::move(A)); // unresolved: bad arity
      return;
    }
    // Row-major element strides.
    std::vector<long long> Strides(Dims.size(), 1);
    for (int I = static_cast<int>(Dims.size()) - 2; I >= 0; --I)
      Strides[I] = Strides[I + 1] * Dims[I + 1];

    AffineExpr Flat;
    bool Ok = true;
    for (size_t I = 0; I < Dims.size(); ++I) {
      AffineExpr Dim;
      if (!buildAffine(Ref->index(I), K, Dim)) {
        Ok = false;
        break;
      }
      substituteEnv(Dim, SyncIters);
      Dim *= Strides[I];
      Flat += Dim;
    }
    if (Ok) {
      Flat *= DeclLanes;
      A.FlatFloat = Flat;
      A.Resolved = true;
    }
    Model.Accesses.push_back(std::move(A));
  }

  const KernelFunction &K;
  PhaseModel Model;
  int Phase = 0;
  std::map<std::string, long long> SyncIters;
  std::vector<EnumLoop> FreeLoops;
  std::vector<AccessGuard> GuardStack;
  int UnknownGuardDepth = 0;
  std::map<std::string, const DeclStmt *> SharedByName;
};

} // namespace

EnumLoop gpuc::enumerateLoopValues(const ForStmt *F, const KernelFunction &K,
                                   const std::map<std::string, long long> &Env,
                                   int Cap) {
  EnumLoop L;
  L.Name = F->iterName();
  long long Init = 0, Bound = 0, Step = 0;
  if (!buildConstAffine(F->init(), K, Env, Init) ||
      !buildConstAffine(F->bound(), K, Env, Bound) ||
      !buildConstAffine(F->step(), K, Env, Step))
    return L;

  auto InRange = [&](long long V) {
    switch (F->cmp()) {
    case CmpKind::LT:
      return V < Bound;
    case CmpKind::LE:
      return V <= Bound;
    case CmpKind::GT:
      return V > Bound;
    case CmpKind::GE:
      return V >= Bound;
    }
    return false;
  };

  if (F->stepKind() == StepKind::Add) {
    // Ascending loops step forward, descending loops step backward; a step
    // in the wrong direction would not terminate.
    bool Ascending = F->cmp() == CmpKind::LT || F->cmp() == CmpKind::LE;
    if ((Ascending && Step <= 0) || (!Ascending && Step >= 0))
      return L;
    L.Resolved = true;
    long long V = Init;
    while (InRange(V)) {
      if (static_cast<int>(L.Values.size()) >= Cap) {
        L.Capped = true;
        break;
      }
      L.Values.push_back(V);
      V += Step;
    }
    if (!L.Values.empty()) {
      L.Min = *std::min_element(L.Values.begin(), L.Values.end());
      L.Max = *std::max_element(L.Values.begin(), L.Values.end());
      if (L.Capped) {
        // Analytic last value for interval reasoning past the cap.
        long long Span = Ascending ? Bound - Init : Init - Bound;
        long long AbsStep = Step > 0 ? Step : -Step;
        long long Extra = F->cmp() == CmpKind::LE || F->cmp() == CmpKind::GE
                              ? 1
                              : 0;
        long long Trip = (Span + Extra + AbsStep - 1) / AbsStep;
        long long LastV = Init + (Trip - 1) * Step;
        L.Min = std::min(L.Min, LastV);
        L.Max = std::max(L.Max, LastV);
      }
    }
    return L;
  }

  // Halving loops (i = i / Step) of the reduction kernels.
  if (Step < 2)
    return L;
  L.Resolved = true;
  long long V = Init;
  while (InRange(V)) {
    if (static_cast<int>(L.Values.size()) >= Cap) {
      L.Capped = true;
      break;
    }
    L.Values.push_back(V);
    if (V == 0)
      break; // 0 / Step == 0 would loop forever
    V /= Step;
  }
  if (!L.Values.empty()) {
    L.Min = *std::min_element(L.Values.begin(), L.Values.end());
    L.Max = *std::max_element(L.Values.begin(), L.Values.end());
  }
  return L;
}

bool gpuc::guardHolds(const AccessGuard &G, long long Tidx, long long Tidy,
                      long long Bidx, long long Bidy,
                      const std::map<std::string, long long> &LoopValues) {
  return satisfiesCmp(G.Delta.evaluate(Tidx, Tidy, Bidx, Bidy, LoopValues),
                      G.Cmp);
}

PhaseModel gpuc::buildPhaseModel(const KernelFunction &K) {
  return PhaseBuilder(K).run();
}
