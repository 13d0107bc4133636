//===-- analysis/Dataflow.cpp - Abstract-interpretation engine ------------===//

#include "analysis/Dataflow.h"

#include "ast/Walk.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <climits>
#include <set>

using namespace gpuc;

const char *gpuc::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Proven:
    return "proven";
  case Verdict::Possible:
    return "possible";
  case Verdict::Violation:
    return "violation";
  }
  return "?";
}

bool gpuc::satisfiesCmp(long long V, BinOp Cmp) {
  switch (Cmp) {
  case BinOp::LT:
    return V < 0;
  case BinOp::LE:
    return V <= 0;
  case BinOp::GT:
    return V > 0;
  case BinOp::GE:
    return V >= 0;
  case BinOp::EQ:
    return V == 0;
  case BinOp::NE:
    return V != 0;
  default:
    return false;
  }
}

bool gpuc::isCmpOp(BinOp Op) {
  switch (Op) {
  case BinOp::LT:
  case BinOp::LE:
  case BinOp::GT:
  case BinOp::GE:
  case BinOp::EQ:
  case BinOp::NE:
    return true;
  default:
    return false;
  }
}

BinOp gpuc::negateCmp(BinOp Op) {
  switch (Op) {
  case BinOp::LT:
    return BinOp::GE;
  case BinOp::LE:
    return BinOp::GT;
  case BinOp::GT:
    return BinOp::LE;
  case BinOp::GE:
    return BinOp::LT;
  case BinOp::EQ:
    return BinOp::NE;
  case BinOp::NE:
    return BinOp::EQ;
  default:
    return Op;
  }
}

namespace {

void normalizeAffine(AffineExpr &A) {
  for (auto It = A.LoopCoeffs.begin(); It != A.LoopCoeffs.end();)
    It = It->second == 0 ? A.LoopCoeffs.erase(It) : std::next(It);
}

bool affineEq(const AffineExpr &A, const AffineExpr &B) {
  return A.Const == B.Const && A.CTidx == B.CTidx && A.CTidy == B.CTidy &&
         A.CBidx == B.CBidx && A.CBidy == B.CBidy &&
         A.LoopCoeffs == B.LoopCoeffs;
}

long long floorDiv(long long N, long long D) {
  long long Q = N / D, R = N % D;
  return R != 0 && ((R < 0) != (D < 0)) ? Q - 1 : Q;
}

long long ceilDiv(long long N, long long D) { return -floorDiv(-N, D); }

/// `x Cmp y` rewritten as `y Cmp' x`.
BinOp swapCmp(BinOp Op) {
  switch (Op) {
  case BinOp::LT:
    return BinOp::GT;
  case BinOp::LE:
    return BinOp::GE;
  case BinOp::GT:
    return BinOp::LT;
  case BinOp::GE:
    return BinOp::LE;
  default:
    return Op; // EQ/NE are symmetric
  }
}

/// A path fact `Delta Cmp 0` over a canonical affine form, pushed when
/// entering a refined branch and used to clip collinear access forms.
struct Constraint {
  AffineExpr Delta;
  BinOp Cmp;
};

/// Classification of a branch condition.
struct CondClass {
  enum class Truth { True, False, Mixed };
  Truth T = Truth::Mixed;
  DivFact Div;
  /// The affine straddle test proved two threads of some executing block
  /// (resp. two blocks) evaluate the condition differently.
  bool ThreadSplit = false;
  bool BlockSplit = false;
};

/// Control context carried down the walk; saved/restored around nested
/// constructs.
struct CtxState {
  /// Join of enclosing if-condition / loop-trip divergence.
  DivFact IfDiv, LoopDiv;
  /// A proven divergence whose deadlock is unconditional from here: the
  /// matching barrier verdict is Violation, not just Possible. Cleared on
  /// entering any construct whose execution is not guaranteed.
  bool IfThreadArmed = false, IfBlockArmed = false;
  bool LoopThreadArmed = false, LoopBlockArmed = false;
  /// Every thread that launches reaches this point.
  bool ExecGuaranteed = true;
  /// Enclosing guards of any kind (for AccessFact::Guarded).
  int CondDepth = 0;

  void enterUncertain() {
    ++CondDepth;
    ExecGuaranteed = false;
    IfThreadArmed = IfBlockArmed = false;
    LoopThreadArmed = LoopBlockArmed = false;
  }
};

class Engine {
public:
  explicit Engine(const KernelFunction &K) : K(K), L(K.launch()) {
    for (const DeclStmt *D : K.sharedDecls())
      Shared[D->name()] = D;
  }

  DataflowResult run() {
    State S;
    analyzeCompound(K.body(), S);
    Res.ExitVars = std::move(S.Vars);
    return std::move(Res);
  }

private:
  struct State {
    std::map<std::string, VarFact> Vars;
  };

  //===------------------------------------------------------------------===//
  // Environments and expression evaluation
  //===------------------------------------------------------------------===//

  /// Views of \p S's variable facts; \p S must outlive them unchanged.
  static const VarFact *findVar(const void *Vars, const std::string &Name) {
    const auto &M = *static_cast<const std::map<std::string, VarFact> *>(Vars);
    auto It = M.find(Name);
    return It == M.end() ? nullptr : &It->second;
  }

  static DivEnv divEnv(const State &S) {
    return {&S.Vars, [](const void *Vars, const std::string &Name) {
              const VarFact *F = findVar(Vars, Name);
              return F ? &F->Div : nullptr;
            }};
  }

  static RangeEnv rangeEnv(const State &S) {
    return {&S.Vars, [](const void *Vars, const std::string &Name) {
              const VarFact *F = findVar(Vars, Name);
              return F ? &F->Range : nullptr;
            }};
  }

  /// Canonical affine form of \p E: builtins plus *active* loop iterators;
  /// other int locals are spliced in through their own stored forms.
  bool canonicalForm(const Expr *E, const State &S, AffineExpr &Out) const {
    AffineExpr Raw;
    if (!buildAffine(E, K, Raw))
      return false;
    Out = Raw;
    Out.LoopCoeffs.clear();
    for (const auto &[Name, C] : Raw.LoopCoeffs) {
      if (ActiveIters.count(Name)) {
        Out.LoopCoeffs[Name] += C;
        continue;
      }
      auto It = S.Vars.find(Name);
      if (It == S.Vars.end() || !It->second.HasForm)
        return false;
      AffineExpr T = It->second.Form;
      T *= C;
      Out += T;
    }
    normalizeAffine(Out);
    return true;
  }

  /// Structural interval of an int/bool expression; carries branch
  /// refinements through the variable environment.
  Interval intervalOf(const Expr *E, const State &S) const {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return Interval::point(cast<IntLit>(E)->value());
    case ExprKind::BuiltinRef:
      switch (cast<BuiltinRef>(E)->id()) {
      case BuiltinId::Tidx:
        return Interval::make(0, L.BlockDimX - 1, true);
      case BuiltinId::Tidy:
        return Interval::make(0, L.BlockDimY - 1, true);
      case BuiltinId::Bidx:
        return Interval::make(0, L.GridDimX - 1, true);
      case BuiltinId::Bidy:
        return Interval::make(0, L.GridDimY - 1, true);
      case BuiltinId::Idx:
        return Interval::make(0, L.GridDimX * L.BlockDimX - 1, true);
      case BuiltinId::Idy:
        return Interval::make(0, L.GridDimY * L.BlockDimY - 1, true);
      case BuiltinId::BlockDimX:
        return Interval::point(L.BlockDimX);
      case BuiltinId::BlockDimY:
        return Interval::point(L.BlockDimY);
      case BuiltinId::GridDimX:
        return Interval::point(L.GridDimX);
      case BuiltinId::GridDimY:
        return Interval::point(L.GridDimY);
      }
      return Interval::top();
    case ExprKind::VarRef: {
      const auto *V = cast<VarRef>(E);
      if (const ParamDecl *P = K.findParam(V->name())) {
        if (P->IsArray)
          return Interval::top();
        auto It = K.scalarBindings().find(V->name());
        return It == K.scalarBindings().end() ? Interval::top()
                                              : Interval::point(It->second);
      }
      auto It = S.Vars.find(V->name());
      return It == S.Vars.end() ? Interval::top() : It->second.Range;
    }
    case ExprKind::Binary: {
      const auto *B = cast<Binary>(E);
      switch (B->op()) {
      case BinOp::Add:
        return addI(intervalOf(B->lhs(), S), intervalOf(B->rhs(), S));
      case BinOp::Sub:
        return subI(intervalOf(B->lhs(), S), intervalOf(B->rhs(), S));
      case BinOp::Mul:
        return mulI(intervalOf(B->lhs(), S), intervalOf(B->rhs(), S));
      case BinOp::Div:
        return divI(intervalOf(B->lhs(), S), intervalOf(B->rhs(), S));
      case BinOp::Rem:
        return remI(intervalOf(B->lhs(), S), intervalOf(B->rhs(), S));
      default:
        return Interval::make(0, 1); // comparisons, &&, ||
      }
    }
    case ExprKind::Unary:
      if (cast<Unary>(E)->op() == UnOp::Neg)
        return negI(intervalOf(cast<Unary>(E)->sub(), S));
      return Interval::make(0, 1);
    default:
      return Interval::top(); // FloatLit / ArrayRef / Call / Member
    }
  }

  /// Clips the range of the affine form \p F by every active path
  /// constraint whose variable part is collinear with \p F's: if
  /// varpart(F) == (P/Q)*varpart(Delta) then F = (P/Q)*Delta + const, and
  /// the constraint's one-sided bound on Delta bounds F.
  Interval clipByGuards(const AffineExpr &F, Interval I,
                        const RangeEnv &Env) const {
    for (const Constraint &G : Guards) {
      long long P = 0, Q = 0;
      bool Collinear = true;
      auto Pair = [&](long long FC, long long DC) {
        if (!Collinear)
          return;
        if (DC == 0) {
          if (FC != 0)
            Collinear = false;
          return;
        }
        if (Q == 0) {
          P = FC;
          Q = DC;
          return;
        }
        if (static_cast<__int128>(FC) * Q != static_cast<__int128>(DC) * P)
          Collinear = false;
      };
      Pair(F.CTidx, G.Delta.CTidx);
      Pair(F.CTidy, G.Delta.CTidy);
      Pair(F.CBidx, G.Delta.CBidx);
      Pair(F.CBidy, G.Delta.CBidy);
      std::set<std::string> Names;
      for (const auto &[N, C] : F.LoopCoeffs)
        Names.insert(N);
      for (const auto &[N, C] : G.Delta.LoopCoeffs)
        Names.insert(N);
      for (const std::string &N : Names) {
        auto FI = F.LoopCoeffs.find(N);
        auto DI = G.Delta.LoopCoeffs.find(N);
        Pair(FI == F.LoopCoeffs.end() ? 0 : FI->second,
             DI == G.Delta.LoopCoeffs.end() ? 0 : DI->second);
      }
      if (!Collinear || Q == 0 || P == 0)
        continue;
      if (Q < 0) {
        P = -P;
        Q = -Q;
      }
      Interval DR = rangeOfAffine(G.Delta, L, Env);
      if (!DR.Known)
        continue;
      long long VLo = DR.Lo, VHi = DR.Hi;
      switch (G.Cmp) {
      case BinOp::LT:
        VHi = std::min(VHi, -1LL);
        break;
      case BinOp::LE:
        VHi = std::min(VHi, 0LL);
        break;
      case BinOp::GT:
        VLo = std::max(VLo, 1LL);
        break;
      case BinOp::GE:
        VLo = std::max(VLo, 0LL);
        break;
      case BinOp::EQ:
        VLo = std::max(VLo, 0LL);
        VHi = std::min(VHi, 0LL);
        break;
      default:
        continue;
      }
      if (VLo > VHi)
        continue; // contradictory: path unreachable, nothing to clip
      // Q*F = P*Delta + (Q*F.Const - P*Delta.Const).
      __int128 RR = static_cast<__int128>(Q) * F.Const -
                    static_cast<__int128>(P) * G.Delta.Const;
      __int128 QLo = (P > 0 ? static_cast<__int128>(P) * VLo
                            : static_cast<__int128>(P) * VHi) +
                     RR;
      __int128 QHi = (P > 0 ? static_cast<__int128>(P) * VHi
                            : static_cast<__int128>(P) * VLo) +
                     RR;
      constexpr __int128 Cap = static_cast<__int128>(LLONG_MAX) / 2;
      if (QLo < -Cap || QHi > Cap)
        continue;
      Interval Clip =
          Interval::make(ceilDiv(static_cast<long long>(QLo), Q),
                         floorDiv(static_cast<long long>(QHi), Q));
      I = meetI(I, Clip);
    }
    return I;
  }

  /// Full abstract value of \p E under \p S.
  VarFact evalFact(const Expr *E, const State &S) const {
    VarFact F;
    F.Div = divergenceOf(E, K, divEnv(S));
    if (!E->type().isInt() && !E->type().isBool()) {
      F.Range = Interval::top();
      return F;
    }
    RangeEnv Env = rangeEnv(S);
    F.HasForm = canonicalForm(E, S, F.Form);
    Interval Ia = Interval::top();
    if (F.HasForm)
      Ia = clipByGuards(F.Form, rangeOfAffine(F.Form, L, Env), Env);
    F.Range = meetI(Ia, intervalOf(E, S));
    return F;
  }

  //===------------------------------------------------------------------===//
  // Straddle proofs and condition classification
  //===------------------------------------------------------------------===//

  /// Extremes of the tid part (Thread axis) or bid part (Block axis).
  void axisPart(const AffineExpr &A, bool ThreadAxis, long long &Min,
                long long &Max) const {
    Min = Max = 0;
    auto Acc = [&](long long C, long long Dim) {
      if (C > 0)
        Max += C * (Dim - 1);
      else
        Min += C * (Dim - 1);
    };
    if (ThreadAxis) {
      Acc(A.CTidx, L.BlockDimX);
      Acc(A.CTidy, L.BlockDimY);
    } else {
      Acc(A.CBidx, L.GridDimX);
      Acc(A.CBidy, L.GridDimY);
    }
  }

  /// Proves `Delta Cmp 0` evaluates both ways along the given axis in some
  /// actually-executing block/iteration: the axis-independent rest of the
  /// form must have an attained (Exact) extreme at which the axis span
  /// crosses the comparison boundary.
  bool provenSplit(const AffineExpr &Delta, BinOp Cmp, bool ThreadAxis,
                   const RangeEnv &Env) const {
    long long PartMin, PartMax;
    axisPart(Delta, ThreadAxis, PartMin, PartMax);
    if (PartMin == PartMax)
      return false;
    AffineExpr U = Delta;
    if (ThreadAxis)
      U.CTidx = U.CTidy = 0;
    else
      U.CBidx = U.CBidy = 0;
    Interval UI = rangeOfAffine(U, L, Env);
    if (!UI.Known || !UI.Exact)
      return false;
    for (long long Ucorner : {UI.Lo, UI.Hi})
      if (satisfiesCmp(Ucorner + PartMin, Cmp) !=
          satisfiesCmp(Ucorner + PartMax, Cmp))
        return true;
    return false;
  }

  CondClass classifyCond(const Expr *E, const State &S) const {
    CondClass CC;
    CC.Div = divergenceOf(E, K, divEnv(S));
    if (const auto *U = dyn_cast<Unary>(E); U && U->op() == UnOp::Not) {
      CC = classifyCond(U->sub(), S);
      if (CC.T == CondClass::Truth::True)
        CC.T = CondClass::Truth::False;
      else if (CC.T == CondClass::Truth::False)
        CC.T = CondClass::Truth::True;
      return CC;
    }
    const auto *B = dyn_cast<Binary>(E);
    if (!B)
      return CC;
    if (B->op() == BinOp::LAnd || B->op() == BinOp::LOr) {
      CondClass CL = classifyCond(B->lhs(), S);
      CondClass CR = classifyCond(B->rhs(), S);
      CC.Div = joinDiv(CL.Div, CR.Div);
      bool IsAnd = B->op() == BinOp::LAnd;
      auto True = CondClass::Truth::True;
      auto False = CondClass::Truth::False;
      if (IsAnd) {
        if (CL.T == False || CR.T == False)
          CC.T = False;
        else if (CL.T == True && CR.T == True)
          CC.T = True;
        // A split survives conjunction only if the other side always holds.
        CC.ThreadSplit = (CL.ThreadSplit && CR.T == True) ||
                         (CR.ThreadSplit && CL.T == True);
        CC.BlockSplit = (CL.BlockSplit && CR.T == True) ||
                        (CR.BlockSplit && CL.T == True);
      } else {
        if (CL.T == True || CR.T == True)
          CC.T = True;
        else if (CL.T == False && CR.T == False)
          CC.T = False;
        CC.ThreadSplit = (CL.ThreadSplit && CR.T == False) ||
                         (CR.ThreadSplit && CL.T == False);
        CC.BlockSplit = (CL.BlockSplit && CR.T == False) ||
                        (CR.BlockSplit && CL.T == False);
      }
      return CC;
    }
    if (!isCmpOp(B->op()) || !B->lhs()->type().isInt() ||
        !B->rhs()->type().isInt())
      return CC;
    AffineExpr FL, FR;
    if (!canonicalForm(B->lhs(), S, FL) || !canonicalForm(B->rhs(), S, FR))
      return CC;
    AffineExpr Delta = FL;
    Delta -= FR;
    normalizeAffine(Delta);
    RangeEnv Env = rangeEnv(S);
    // The affine form sees through composed uniformity (tidx - tidx).
    bool ThreadUniformForm =
        Delta.CTidx == 0 && Delta.CTidy == 0 &&
        std::all_of(Delta.LoopCoeffs.begin(), Delta.LoopCoeffs.end(),
                    [&](const auto &NC) {
                      auto It = S.Vars.find(NC.first);
                      return It != S.Vars.end() &&
                             It->second.Div.Thread == Divergence::Uniform;
                    });
    bool BlockUniformForm =
        Delta.CBidx == 0 && Delta.CBidy == 0 &&
        std::all_of(Delta.LoopCoeffs.begin(), Delta.LoopCoeffs.end(),
                    [&](const auto &NC) {
                      auto It = S.Vars.find(NC.first);
                      return It != S.Vars.end() &&
                             It->second.Div.Block == Divergence::Uniform;
                    });
    if (ThreadUniformForm)
      CC.Div.Thread = Divergence::Uniform;
    if (BlockUniformForm)
      CC.Div.Block = Divergence::Uniform;
    Interval DI = rangeOfAffine(Delta, L, Env);
    if (DI.Known) {
      bool AllTrue = false, AllFalse = false;
      switch (B->op()) {
      case BinOp::LT:
        AllTrue = DI.Hi < 0;
        AllFalse = DI.Lo >= 0;
        break;
      case BinOp::LE:
        AllTrue = DI.Hi <= 0;
        AllFalse = DI.Lo > 0;
        break;
      case BinOp::GT:
        AllTrue = DI.Lo > 0;
        AllFalse = DI.Hi <= 0;
        break;
      case BinOp::GE:
        AllTrue = DI.Lo >= 0;
        AllFalse = DI.Hi < 0;
        break;
      case BinOp::EQ:
        AllTrue = DI.Lo == 0 && DI.Hi == 0;
        AllFalse = !DI.contains(0);
        break;
      case BinOp::NE:
        AllTrue = !DI.contains(0);
        AllFalse = DI.Lo == 0 && DI.Hi == 0;
        break;
      default:
        break;
      }
      if (AllTrue) {
        CC.T = CondClass::Truth::True;
        CC.Div = {};
        return CC;
      }
      if (AllFalse) {
        CC.T = CondClass::Truth::False;
        CC.Div = {};
        return CC;
      }
    }
    CC.ThreadSplit = provenSplit(Delta, B->op(), /*ThreadAxis=*/true, Env);
    CC.BlockSplit = provenSplit(Delta, B->op(), /*ThreadAxis=*/false, Env);
    return CC;
  }

  /// Refines \p S for the branch where \p E is true (or false when
  /// \p Negate): pushes affine guard constraints and clips compared
  /// variables' intervals. \returns the number of constraints pushed.
  size_t refineByCond(State &S, const Expr *E, bool Negate) {
    size_t Pushed = 0;
    if (const auto *U = dyn_cast<Unary>(E); U && U->op() == UnOp::Not)
      return refineByCond(S, U->sub(), !Negate);
    const auto *B = dyn_cast<Binary>(E);
    if (!B)
      return 0;
    if ((B->op() == BinOp::LAnd && !Negate) ||
        (B->op() == BinOp::LOr && Negate)) {
      Pushed += refineByCond(S, B->lhs(), Negate);
      Pushed += refineByCond(S, B->rhs(), Negate);
      return Pushed;
    }
    if (!isCmpOp(B->op()) || !B->lhs()->type().isInt() ||
        !B->rhs()->type().isInt())
      return 0;
    BinOp Eff = Negate ? negateCmp(B->op()) : B->op();
    AffineExpr FL, FR;
    if (canonicalForm(B->lhs(), S, FL) && canonicalForm(B->rhs(), S, FR) &&
        Eff != BinOp::NE) {
      AffineExpr Delta = FL;
      Delta -= FR;
      normalizeAffine(Delta);
      Guards.push_back({Delta, Eff});
      ++Pushed;
    }
    clipVar(B->lhs(), Eff, B->rhs(), S);
    clipVar(B->rhs(), swapCmp(Eff), B->lhs(), S);
    return Pushed;
  }

  /// If \p VE is a tracked local, clip its interval by `VE Cmp Other`.
  void clipVar(const Expr *VE, BinOp Cmp, const Expr *Other, State &S) {
    const auto *V = dyn_cast<VarRef>(VE);
    if (!V)
      return;
    auto It = S.Vars.find(V->name());
    if (It == S.Vars.end())
      return;
    Interval IR = evalFact(Other, S).Range;
    if (!IR.Known)
      return;
    VarFact &F = It->second;
    if (Cmp == BinOp::EQ) {
      F.Range = meetI(F.Range, Interval::make(IR.Lo, IR.Hi));
      return;
    }
    if (!F.Range.Known)
      return;
    long long Lo = F.Range.Lo, Hi = F.Range.Hi;
    switch (Cmp) {
    case BinOp::LT:
      Hi = std::min(Hi, IR.Hi - 1);
      break;
    case BinOp::LE:
      Hi = std::min(Hi, IR.Hi);
      break;
    case BinOp::GT:
      Lo = std::max(Lo, IR.Lo + 1);
      break;
    case BinOp::GE:
      Lo = std::max(Lo, IR.Lo);
      break;
    default:
      return; // NE carries no interval information
    }
    if (Hi < Lo)
      Hi = Lo; // unreachable path; keep a degenerate enclosure
    if (Lo != F.Range.Lo || Hi != F.Range.Hi) {
      F.Range.Lo = Lo;
      F.Range.Hi = Hi;
      F.Range.Exact = false;
    }
  }

  //===------------------------------------------------------------------===//
  // State join / widen
  //===------------------------------------------------------------------===//

  static VarFact joinFact(const VarFact &A, const VarFact &B) {
    VarFact R;
    R.HasForm = A.HasForm && B.HasForm && affineEq(A.Form, B.Form);
    if (R.HasForm)
      R.Form = A.Form;
    R.Range = joinI(A.Range, B.Range);
    R.Div = joinDiv(A.Div, B.Div);
    return R;
  }

  static State joinState(const State &A, const State &B) {
    State R = A;
    for (const auto &[Name, FB] : B.Vars) {
      auto It = R.Vars.find(Name);
      if (It == R.Vars.end())
        R.Vars[Name] = FB; // declared on one path only: keep its fact
      else
        It->second = joinFact(It->second, FB);
    }
    return R;
  }

  static bool equalState(const State &A, const State &B) {
    return A.Vars == B.Vars;
  }

  static State widenState(const State &Old, const State &New) {
    State R = New;
    for (auto &[Name, F] : R.Vars) {
      auto It = Old.Vars.find(Name);
      if (It != Old.Vars.end() && F == It->second)
        continue;
      F.Range = Interval::top();
      F.HasForm = false;
    }
    return R;
  }

  //===------------------------------------------------------------------===//
  // Access and barrier fact recording
  //===------------------------------------------------------------------===//

  void collectAccesses(const Expr *E, const State &S,
                       const ArrayRef *StoreRef) {
    if (!E || !Record)
      return;
    forEachExprIn(const_cast<Expr *>(E), [&](Expr *Sub) {
      if (auto *AR = dyn_cast<ArrayRef>(Sub))
        recordAccess(AR, AR == StoreRef, S);
    });
  }

  void recordAccess(const ArrayRef *Ref, bool IsStore, const State &S) {
    AccessFact F;
    F.Ref = Ref;
    F.Array = Ref->base();
    F.IsStore = IsStore;
    F.Loc = Ref->loc();
    F.Guarded = Ctx.CondDepth > 0;

    std::vector<long long> Dims;
    int ElemLanes = 1;
    if (const ParamDecl *P = K.findParam(Ref->base())) {
      if (!P->IsArray)
        return;
      Dims.assign(P->Dims.begin(), P->Dims.end());
      ElemLanes = P->ElemTy.sizeInBytes() / 4;
      F.TotalWords = P->elemCount() * ElemLanes;
    } else {
      auto It = Shared.find(Ref->base());
      if (It == Shared.end())
        return; // unknown array: a structural error, not ours to judge
      F.IsShared = true;
      const DeclStmt *D = It->second;
      Dims.assign(D->sharedDims().begin(), D->sharedDims().end());
      ElemLanes = D->declType().sizeInBytes() / 4;
      F.TotalWords = D->sharedElemCount() * ElemLanes;
    }

    // Flat word offset, mirroring the simulator's bounds check: for a
    // reinterpreted vector view the single index is in vector units,
    // otherwise row-major element flattening scaled by the element lanes.
    RangeEnv Env = rangeEnv(S);
    bool HasForm = true;
    AffineExpr WordForm;
    Interval Words;
    DivFact AddrDiv;
    if (Ref->vecWidth() > 1) {
      F.Lanes = Ref->vecWidth();
      if (Ref->numIndices() != 1)
        return;
      AddrDiv = divergenceOf(Ref->index(0), K, divEnv(S));
      AffineExpr IF;
      HasForm = canonicalForm(Ref->index(0), S, IF);
      if (HasForm) {
        IF *= Ref->vecWidth();
        WordForm = IF;
      }
      Words = mulI(intervalOf(Ref->index(0), S),
                   Interval::point(Ref->vecWidth()));
    } else {
      F.Lanes = ElemLanes;
      if (Ref->numIndices() != Dims.size())
        return;
      std::vector<long long> Strides(Dims.size(), 1);
      for (size_t I = Dims.size(); I-- > 1;)
        Strides[I - 1] = Strides[I] * Dims[I];
      Words = Interval::point(0);
      WordForm = AffineExpr(0);
      DivEnv DE = divEnv(S);
      for (size_t I = 0; I < Dims.size(); ++I) {
        AddrDiv = joinDiv(AddrDiv, divergenceOf(Ref->index(I), K, DE));
        AffineExpr IF;
        if (HasForm && canonicalForm(Ref->index(I), S, IF)) {
          IF *= Strides[I];
          WordForm += IF;
        } else {
          HasForm = false;
        }
        Words = addI(Words, mulI(intervalOf(Ref->index(I), S),
                                 Interval::point(Strides[I])));
      }
      Words = mulI(Words, Interval::point(ElemLanes));
      if (HasForm)
        WordForm *= ElemLanes;
    }
    if (HasForm) {
      normalizeAffine(WordForm);
      Interval Ia =
          clipByGuards(WordForm, rangeOfAffine(WordForm, L, Env), Env);
      Words = meetI(Ia, Words);
    }
    F.Words = Words;
    F.AddrDiv = AddrDiv;

    const long long Total = F.TotalWords;
    if (Words.Known && Words.Lo >= 0 && Words.Hi + F.Lanes <= Total) {
      F.Bounds = Verdict::Proven;
    } else if (Ctx.ExecGuaranteed && Words.Known &&
               ((Words.Hi < 0 || Words.Lo + F.Lanes > Total) ||
                (Words.Exact &&
                 (Words.Lo < 0 || Words.Hi + F.Lanes > Total)))) {
      // Either every offset is invalid, or an attained endpoint is — and
      // the access provably executes, so the fault is certain.
      F.Bounds = Verdict::Violation;
    } else {
      F.Bounds = Verdict::Possible;
    }
    Res.Accesses.push_back(std::move(F));
  }

  void recordBarrier(const SyncStmt *Sync) {
    if (!Record)
      return;
    BarrierFact F;
    F.Sync = Sync;
    F.IsGlobal = Sync->isGlobal();
    DivFact C = joinDiv(Ctx.IfDiv, Ctx.LoopDiv);

    Verdict TV = Verdict::Proven;
    std::string TReason;
    if (C.Thread != Divergence::Uniform) {
      if (Ctx.IfThreadArmed) {
        TV = Verdict::Violation;
        TReason = "barrier under divergent control flow";
      } else if (Ctx.LoopThreadArmed) {
        TV = Verdict::Violation;
        TReason = "barrier inside loop with thread-dependent trip count";
      } else {
        TV = Verdict::Possible;
        TReason = Ctx.IfDiv.Thread != Divergence::Uniform
                      ? "barrier not proven to execute under uniform "
                        "control flow"
                      : "barrier inside loop whose trip count is not "
                        "proven thread-uniform";
      }
    }

    Verdict BV = Verdict::Proven;
    std::string BReason;
    if (Sync->isGlobal() && C.Block != Divergence::Uniform) {
      if (Ctx.LoopBlockArmed) {
        BV = Verdict::Violation;
        BReason = "__globalSync inside loop with block-dependent trip count";
      } else if (Ctx.IfBlockArmed) {
        BV = Verdict::Violation;
        BReason = "__globalSync under block-divergent control flow";
      } else {
        BV = Verdict::Possible;
        BReason = "__globalSync not proven to execute uniformly across "
                  "blocks";
      }
    }

    // Worst verdict wins; the thread axis breaks ties (its wording matches
    // the historical Verifier diagnostics).
    if (BV == Verdict::Violation && TV != Verdict::Violation) {
      F.Uniformity = BV;
      F.Reason = BReason;
    } else if (TV != Verdict::Proven) {
      F.Uniformity = TV;
      F.Reason = TReason;
    } else {
      F.Uniformity = BV;
      F.Reason = BReason;
    }
    Res.Barriers.push_back(std::move(F));
  }

  //===------------------------------------------------------------------===//
  // Statement analysis
  //===------------------------------------------------------------------===//

  void analyzeCompound(const CompoundStmt *C, State &S) {
    if (!C)
      return;
    for (const Stmt *St : C->body())
      analyzeStmt(St, S);
  }

  void analyzeStmt(const Stmt *St, State &S) {
    switch (St->kind()) {
    case StmtKind::Compound:
      analyzeCompound(cast<CompoundStmt>(St), S);
      break;
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(St);
      if (D->isShared())
        break;
      collectAccesses(D->init(), S, nullptr);
      VarFact F;
      if (D->init()) {
        F = evalFact(D->init(), S);
        sanitizeForm(F, D->name());
      } else {
        F.Div = {Divergence::Unknown, Divergence::Unknown};
      }
      S.Vars[D->name()] = F;
      break;
    }
    case StmtKind::Assign:
      analyzeAssign(cast<AssignStmt>(St), S);
      break;
    case StmtKind::If:
      analyzeIf(cast<IfStmt>(St), S);
      break;
    case StmtKind::For:
      analyzeFor(cast<ForStmt>(St), S);
      break;
    case StmtKind::While:
      analyzeWhile(cast<WhileStmt>(St), S);
      break;
    case StmtKind::Sync:
      recordBarrier(cast<SyncStmt>(St));
      break;
    }
  }

  /// Drops a form that references out-of-scope iterators or the variable
  /// being defined (self-reference after `i = i + 1`).
  void sanitizeForm(VarFact &F, const std::string &Target) const {
    if (!F.HasForm)
      return;
    for (const auto &[Name, C] : F.Form.LoopCoeffs)
      if (!ActiveIters.count(Name) || Name == Target) {
        F.HasForm = false;
        return;
      }
  }

  void analyzeAssign(const AssignStmt *A, State &S) {
    const ArrayRef *StoreRef = dyn_cast<ArrayRef>(A->lhs());
    collectAccesses(A->lhs(), S, StoreRef);
    collectAccesses(A->rhs(), S, nullptr);
    if (const auto *V = dyn_cast<VarRef>(A->lhs())) {
      if (K.findParam(V->name()))
        return; // store to scalar parameter: structural error
      VarFact New;
      if (A->op() == AssignOp::Assign) {
        New = evalFact(A->rhs(), S);
      } else {
        auto It = S.Vars.find(V->name());
        VarFact Old = It == S.Vars.end() ? VarFact() : It->second;
        if (It == S.Vars.end())
          Old.Div = {Divergence::Unknown, Divergence::Unknown};
        VarFact R = evalFact(A->rhs(), S);
        New.Div = joinDiv(Old.Div, R.Div);
        switch (A->op()) {
        case AssignOp::AddAssign:
          if (Old.HasForm && R.HasForm) {
            New.HasForm = true;
            New.Form = Old.Form;
            New.Form += R.Form;
            normalizeAffine(New.Form);
          }
          New.Range = addI(Old.Range, R.Range);
          break;
        case AssignOp::SubAssign:
          if (Old.HasForm && R.HasForm) {
            New.HasForm = true;
            New.Form = Old.Form;
            New.Form -= R.Form;
            normalizeAffine(New.Form);
          }
          New.Range = subI(Old.Range, R.Range);
          break;
        case AssignOp::MulAssign:
          if (Old.HasForm && R.HasForm && R.Form.isConstant()) {
            New.HasForm = true;
            New.Form = Old.Form;
            New.Form *= R.Form.Const;
          } else if (Old.HasForm && Old.Form.isConstant() && R.HasForm) {
            New.HasForm = true;
            New.Form = R.Form;
            New.Form *= Old.Form.Const;
          }
          New.Range = mulI(Old.Range, R.Range);
          break;
        case AssignOp::Assign:
          break;
        }
      }
      sanitizeForm(New, V->name());
      S.Vars[V->name()] = New;
    } else if (const auto *Mem = dyn_cast<Member>(A->lhs())) {
      if (const auto *BV = dyn_cast<VarRef>(Mem->baseExpr())) {
        auto It = S.Vars.find(BV->name());
        if (It != S.Vars.end()) {
          It->second.Div =
              joinDiv(It->second.Div, evalFact(A->rhs(), S).Div);
          It->second.Range = Interval::top();
          It->second.HasForm = false;
        }
      }
    }
  }

  void analyzeIf(const IfStmt *If, State &S) {
    collectAccesses(If->cond(), S, nullptr);
    CondClass CC = classifyCond(If->cond(), S);

    if (CC.T == CondClass::Truth::True) {
      // Transparent: refine and fall through; no divergence, no guard.
      size_t Mark = Guards.size();
      refineByCond(S, If->cond(), /*Negate=*/false);
      analyzeCompound(If->thenBody(), S);
      Guards.resize(Mark);
      return;
    }
    if (CC.T == CondClass::Truth::False) {
      if (!If->elseBody())
        return;
      size_t Mark = Guards.size();
      refineByCond(S, If->cond(), /*Negate=*/true);
      analyzeCompound(If->elseBody(), S);
      Guards.resize(Mark);
      return;
    }

    CtxState Saved = Ctx;
    bool WasGuaranteed = Ctx.ExecGuaranteed;
    Ctx.enterUncertain();
    Ctx.IfDiv = joinDiv(Saved.IfDiv, CC.Div);
    Ctx.IfThreadArmed = CC.ThreadSplit && WasGuaranteed;
    Ctx.IfBlockArmed = CC.BlockSplit && WasGuaranteed;

    State ThenS = S;
    {
      size_t Mark = Guards.size();
      refineByCond(ThenS, If->cond(), /*Negate=*/false);
      analyzeCompound(If->thenBody(), ThenS);
      Guards.resize(Mark);
    }
    State ElseS = S;
    {
      size_t Mark = Guards.size();
      refineByCond(ElseS, If->cond(), /*Negate=*/true);
      if (If->elseBody())
        analyzeCompound(If->elseBody(), ElseS);
      Guards.resize(Mark);
    }
    Ctx = Saved;
    S = joinState(ThenS, ElseS);
  }

  /// Does \p Body assign to the variable \p Name (directly)?
  static bool bodyAssigns(const CompoundStmt *Body, const std::string &Name) {
    bool Found = false;
    forEachStmt(const_cast<CompoundStmt *>(Body), [&](Stmt *St) {
      if (const auto *A = dyn_cast<AssignStmt>(St))
        if (const auto *V = dyn_cast<VarRef>(A->lhs()))
          if (V->name() == Name)
            Found = true;
    });
    return Found;
  }

  void analyzeFor(const ForStmt *F, State &S) {
    collectAccesses(F->init(), S, nullptr);

    VarFact InitF = evalFact(F->init(), S);
    VarFact BoundF = evalFact(F->bound(), S);
    VarFact StepF = evalFact(F->step(), S);

    const bool IterMutated = bodyAssigns(F->body(), F->iterName());

    // Trip >= 1 for every thread?
    bool TripCertain = false;
    if (InitF.Range.Known && BoundF.Range.Known) {
      switch (F->cmp()) {
      case CmpKind::LT:
        TripCertain = InitF.Range.Hi < BoundF.Range.Lo;
        break;
      case CmpKind::LE:
        TripCertain = InitF.Range.Hi <= BoundF.Range.Lo;
        break;
      case CmpKind::GT:
        TripCertain = InitF.Range.Lo > BoundF.Range.Hi;
        break;
      case CmpKind::GE:
        TripCertain = InitF.Range.Lo >= BoundF.Range.Hi;
        break;
      }
    }

    DivFact TripDiv = joinDiv(joinDiv(InitF.Div, BoundF.Div), StepF.Div);

    // Proven trip-count split: unit positive step, upward loop, affine
    // bound-minus-init with an attained straddle (trips differ between
    // two threads / blocks of some executing instance).
    bool TripThreadSplit = false, TripBlockSplit = false;
    if (!IterMutated && F->stepKind() == StepKind::Add &&
        StepF.Range.isPoint() && StepF.Range.Lo == 1 &&
        (F->cmp() == CmpKind::LT || F->cmp() == CmpKind::LE) &&
        InitF.HasForm && BoundF.HasForm) {
      AffineExpr Delta = BoundF.Form;
      Delta -= InitF.Form;
      normalizeAffine(Delta);
      long long Bias = F->cmp() == CmpKind::LE ? 1 : 0;
      RangeEnv Env = rangeEnv(S);
      auto SplitOn = [&](bool ThreadAxis) {
        long long PartMin, PartMax;
        axisPart(Delta, ThreadAxis, PartMin, PartMax);
        if (PartMin == PartMax)
          return false;
        AffineExpr U = Delta;
        if (ThreadAxis)
          U.CTidx = U.CTidy = 0;
        else
          U.CBidx = U.CBidy = 0;
        Interval UI = rangeOfAffine(U, L, Env);
        if (!UI.Known || !UI.Exact)
          return false;
        for (long long Ucorner : {UI.Lo, UI.Hi}) {
          long long TripA = std::max(0LL, Ucorner + PartMin + Bias);
          long long TripB = std::max(0LL, Ucorner + PartMax + Bias);
          if (TripA != TripB)
            return true;
        }
        return false;
      };
      TripThreadSplit = SplitOn(/*ThreadAxis=*/true);
      TripBlockSplit = SplitOn(/*ThreadAxis=*/false);
    }

    // Iterator abstract value over all iterations.
    VarFact IterF = iteratorFact(F, InitF, BoundF, StepF, IterMutated);

    CtxState Saved = Ctx;
    if (!TripCertain)
      Ctx.enterUncertain();
    Ctx.LoopDiv = joinDiv(Saved.LoopDiv, TripDiv);
    Ctx.LoopThreadArmed =
        (TripCertain ? Ctx.LoopThreadArmed : false) || TripThreadSplit;
    Ctx.LoopBlockArmed =
        (TripCertain ? Ctx.LoopBlockArmed : false) || TripBlockSplit;

    ActiveIters.insert(F->iterName());

    State In = S;
    In.Vars[F->iterName()] = IterF;
    bool SavedRecord = Record;
    Record = false;
    bool Converged = false;
    for (int It = 0; It < 4 && !Converged; ++It) {
      State B = In;
      analyzeCompound(F->body(), B);
      State J = joinState(In, B);
      if (equalState(J, In))
        Converged = true;
      else
        In = It >= 2 ? widenState(In, J) : J;
    }
    Record = SavedRecord;

    // Recording pass on the stable state: bound and step re-evaluate each
    // round, so their accesses are recorded against the widened facts.
    collectAccesses(F->bound(), In, nullptr);
    collectAccesses(F->step(), In, nullptr);
    State Fin = In;
    analyzeCompound(F->body(), Fin);
    State Post = joinState(In, Fin);

    ActiveIters.erase(F->iterName());
    Ctx = Saved;

    // The iterator's exit value is bound-shaped, not range-shaped; drop to
    // top rather than pretend. Forms naming the dead iterator die with it.
    auto ItV = Post.Vars.find(F->iterName());
    if (ItV != Post.Vars.end()) {
      ItV->second.Range = Interval::top();
      ItV->second.HasForm = false;
      ItV->second.Div = joinDiv(ItV->second.Div, BoundF.Div);
    }
    for (auto &[Name, VF] : Post.Vars)
      if (VF.HasForm && VF.Form.LoopCoeffs.count(F->iterName()))
        VF.HasForm = false;
    S = std::move(Post);
  }

  VarFact iteratorFact(const ForStmt *F, const VarFact &InitF,
                       const VarFact &BoundF, const VarFact &StepF,
                       bool IterMutated) const {
    VarFact IterF;
    IterF.Div = joinDiv(InitF.Div, StepF.Div);
    IterF.HasForm = true;
    IterF.Form = AffineExpr();
    IterF.Form.LoopCoeffs[F->iterName()] = 1;
    IterF.Range = Interval::top();
    if (IterMutated)
      return IterF;
    const Interval &II = InitF.Range, &BI = BoundF.Range, &SI = StepF.Range;
    if (F->stepKind() == StepKind::Add && SI.Known) {
      if ((F->cmp() == CmpKind::LT || F->cmp() == CmpKind::LE) &&
          SI.Lo >= 1 && II.Known && BI.Known) {
        long long Lo = II.Lo;
        long long Hi = BI.Hi - (F->cmp() == CmpKind::LT ? 1 : 0);
        if (Hi < Lo)
          Hi = Lo; // possibly zero-trip; body never sees these values
        IterF.Range = Interval::make(Lo, Hi);
        // Constant bounds: the exact last attained value, and attainment
        // independent of tid/bid (the Exact discipline rangeOfAffine
        // relies on).
        if (II.isPoint() && BI.isPoint() && SI.isPoint() &&
            II.Exact && BI.Exact) {
          long long BEff = BI.Lo - (F->cmp() == CmpKind::LT ? 1 : 0);
          if (BEff >= II.Lo) {
            long long S0 = SI.Lo;
            long long Last = II.Lo + ((BEff - II.Lo) / S0) * S0;
            IterF.Range = Interval::make(II.Lo, Last, true);
          }
        }
      } else if ((F->cmp() == CmpKind::GT || F->cmp() == CmpKind::GE) &&
                 SI.Hi <= -1 && II.Known && BI.Known) {
        long long Hi = II.Hi;
        long long Lo = BI.Lo + (F->cmp() == CmpKind::GT ? 1 : 0);
        if (Hi < Lo)
          Hi = Lo;
        IterF.Range = Interval::make(Lo, Hi);
      }
    } else if (F->stepKind() == StepKind::Div && SI.Known && SI.Lo >= 2 &&
               (F->cmp() == CmpKind::GT || F->cmp() == CmpKind::GE) &&
               II.Known && BI.Known && BI.Lo >= 0) {
      // Halving loop: body values satisfy the condition and shrink from
      // the initial value toward the bound.
      long long Lo = BI.Lo + (F->cmp() == CmpKind::GT ? 1 : 0);
      long long Hi = std::max(II.Hi, Lo);
      IterF.Range = Interval::make(Lo, Hi);
    }
    return IterF;
  }

  void analyzeWhile(const WhileStmt *W, State &S) {
    // Entry-state classification: a proven split here means a divergent
    // subset of threads enters the loop at all.
    CondClass CCEntry = classifyCond(W->cond(), S);

    CtxState Saved = Ctx;
    Ctx.enterUncertain(); // the body may execute zero times
    Ctx.LoopThreadArmed = CCEntry.ThreadSplit;
    Ctx.LoopBlockArmed = CCEntry.BlockSplit;

    State In = S;
    bool SavedRecord = Record;
    Record = false;
    size_t Mark = Guards.size();
    refineByCond(In, W->cond(), /*Negate=*/false);
    bool Converged = false;
    for (int It = 0; It < 4 && !Converged; ++It) {
      State B = In;
      analyzeCompound(W->body(), B);
      State J = joinState(In, B);
      if (equalState(J, In))
        Converged = true;
      else
        In = It >= 2 ? widenState(In, J) : J;
    }
    Record = SavedRecord;

    // The trip count depends on however the condition evolves; classify on
    // the stable state for the may-divergence join.
    CondClass CCStable = classifyCond(W->cond(), In);
    Ctx.LoopDiv = joinDiv(Saved.LoopDiv, CCStable.Div);

    // Recording pass: the condition re-evaluates every round against the
    // widened facts, then the body.
    collectAccesses(W->cond(), In, nullptr);
    State Fin = In;
    analyzeCompound(W->body(), Fin);
    Guards.resize(Mark);
    State Post = joinState(In, Fin);

    Ctx = Saved;
    S = joinState(S, Post); // zero-trip: the entry state survives
    // On exit the condition is false; clip refinable variables by its
    // negation (a persistent fact, unlike the scoped affine guards).
    refineVarOnly(S, W->cond(), /*Negate=*/true);
  }

  /// Variable clipping without pushing scoped affine guards (for facts
  /// that persist past a construct, like a while loop's exit condition).
  void refineVarOnly(State &S, const Expr *E, bool Negate) {
    size_t Mark = Guards.size();
    refineByCond(S, E, Negate);
    Guards.resize(Mark);
  }

  const KernelFunction &K;
  const LaunchConfig &L;
  DataflowResult Res;
  std::map<std::string, const DeclStmt *> Shared;
  std::set<std::string> ActiveIters;
  std::vector<Constraint> Guards;
  CtxState Ctx;
  /// False during fixpoint warm-up passes so each syntactic access /
  /// barrier yields exactly one fact, computed against the stable state.
  bool Record = true;
};

} // namespace

bool VarFact::operator==(const VarFact &O) const {
  if (HasForm != O.HasForm || !(Range == O.Range) || !(Div == O.Div))
    return false;
  return !HasForm || affineEq(Form, O.Form);
}

bool DataflowResult::boundsClean() const {
  return std::all_of(Accesses.begin(), Accesses.end(), [](const AccessFact &A) {
    return A.Bounds == Verdict::Proven;
  });
}

bool DataflowResult::barriersClean() const {
  return std::all_of(Barriers.begin(), Barriers.end(), [](const BarrierFact &B) {
    return B.Uniformity == Verdict::Proven;
  });
}

bool DataflowResult::anyViolation() const {
  for (const AccessFact &A : Accesses)
    if (A.Bounds == Verdict::Violation)
      return true;
  for (const BarrierFact &B : Barriers)
    if (B.Uniformity == Verdict::Violation)
      return true;
  return false;
}

const AccessFact *DataflowResult::factFor(const ArrayRef *Ref) const {
  for (const AccessFact &A : Accesses)
    if (A.Ref == Ref)
      return &A;
  return nullptr;
}

DataflowResult gpuc::runDataflow(const KernelFunction &K) {
  return Engine(K).run();
}
