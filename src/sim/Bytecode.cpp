//===-- sim/Bytecode.cpp - AST -> flat op stream lowering -----------------===//
//
// Lowers a resolved kernel body into the BcProgram the vector executor
// runs. Emission mirrors Interpreter::evalExpr node for node: the same
// evaluation order (race-sanitizer read order depends on it), the same
// implicit conversions, the same statistics weights (accumulated per range
// instead of per executed node), and the same value-part quirks (stale int
// parts of compound assignments, negated zero lanes, scalar broadcast).
//
//===----------------------------------------------------------------------===//

#include "sim/Bytecode.h"

#include "ast/Walk.h"
#include "sim/Interpreter.h"

#include <algorithm>
#include <map>

using namespace gpuc;

namespace gpuc {

class BcBuilder {
public:
  explicit BcBuilder(const Interpreter &In) : In(In) {}

  std::unique_ptr<BcProgram> build() {
    computeLaneWidth();
    P.Root = compileStmt(In.K.body());
    if (!Ok)
      return nullptr;
    return std::make_unique<BcProgram>(P);
  }

private:
  const Interpreter &In;
  BcProgram P;
  bool Ok = true;

  // Temp plane allocation follows the statement tree like a stack: each
  // statement's temps are released when it completes (cross-range reads
  // only happen within one statement), so the plane count is the deepest
  // chain, not the kernel size — grid mode stays memory-frugal.
  int FCur = 0, ICur = 0, LCur = 0;
  std::map<uint32_t, int32_t> FPool;
  std::map<int, int32_t> IPool;

  // Per-range statistics accumulation (scalar-interpreter weights).
  double CurDyn = 0, CurFlops = 0;

  // The array a store is flattening its index into, if any: a load of it
  // there refuses the lowering (DESIGN.md section 14).
  const void *CurStoreTarget = nullptr;

  //===--------------------------------------------------------------------===//
  // Plane allocation
  //===--------------------------------------------------------------------===//

  int32_t newF() {
    int32_t R = bcRef(BcPlane::FTemp, FCur++);
    P.NumFTemps = std::max(P.NumFTemps, FCur);
    return R;
  }
  int32_t newI() {
    int32_t R = bcRef(BcPlane::ITemp, ICur++);
    P.NumITemps = std::max(P.NumITemps, ICur);
    return R;
  }
  int32_t newL() {
    int32_t R = bcRef(BcPlane::LTemp, LCur++);
    P.NumLTemps = std::max(P.NumLTemps, LCur);
    return R;
  }

  int32_t fconst(float V) {
    uint32_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "float size");
    __builtin_memcpy(&Bits, &V, sizeof(V));
    auto [It, New] = FPool.try_emplace(Bits, 0);
    if (New) {
      It->second = bcRef(BcPlane::FConst,
                         static_cast<int32_t>(P.FConsts.size()));
      P.FConsts.push_back(V);
    }
    return It->second;
  }
  int32_t iconst(int V) {
    auto [It, New] = IPool.try_emplace(V, 0);
    if (New) {
      It->second = bcRef(BcPlane::IConst,
                         static_cast<int32_t>(P.IConsts.size()));
      P.IConsts.push_back(V);
    }
    return It->second;
  }

  int32_t slotF(int Slot, int Lane) {
    return bcRef(BcPlane::FSlot, Slot * P.KW + Lane);
  }
  int32_t slotI(int Slot) { return bcRef(BcPlane::ISlot, Slot); }

  //===--------------------------------------------------------------------===//
  // Instruction / range emission
  //===--------------------------------------------------------------------===//

  void emit(BcOp Op, int32_t D, int32_t A, int32_t B = 0, uint8_t Aux = 0,
            int32_t Aux32 = 0, long long Imm = 0) {
    BcInstr I;
    I.Op = Op;
    I.Aux = Aux;
    I.D = D;
    I.A = A;
    I.B = B;
    I.Aux32 = Aux32;
    I.Imm = Imm;
    P.Code.push_back(I);
  }

  struct RangeMark {
    int32_t Begin;
    double Dyn, Flops;
  };
  RangeMark beginRange() {
    return {static_cast<int32_t>(P.Code.size()), CurDyn, CurFlops};
  }
  BcRange endRange(RangeMark M) {
    BcRange R;
    R.Begin = M.Begin;
    R.End = static_cast<int32_t>(P.Code.size());
    R.DynOps = CurDyn - M.Dyn;
    R.Flops = CurFlops - M.Flops;
    for (int32_t I = R.Begin; I < R.End; ++I) {
      const BcInstr &Instr = P.Code[static_cast<size_t>(I)];
      if ((Instr.Op == BcOp::Load || Instr.Op == BcOp::Store) &&
          P.Accesses[static_cast<size_t>(Instr.Aux32)].Shared)
        ++R.SharedOps;
    }
    return R;
  }

  //===--------------------------------------------------------------------===//
  // Lane width (ISSUE 7 satellite: SoA planes sized to what the kernel can
  // observe instead of the scalar Value's fixed four floats + int)
  //===--------------------------------------------------------------------===//

  void computeLaneWidth() {
    int KW = 1;
    forEachExpr(In.K.body(), [&](Expr *E) {
      if (E->type().isFloatVector())
        KW = std::max(KW, E->type().vectorWidth());
      if (const auto *M = dyn_cast<Member>(E))
        KW = std::max(KW, M->field() + 1);
    });
    // A float-vector declaration whose slot is never referenced cannot be
    // observed, but a VarRef to it makes the expression walk above see the
    // vector type; declarations themselves add nothing.
    P.KW = std::max(1, std::min(KW, 4));
  }

  //===--------------------------------------------------------------------===//
  // Expressions (mirrors Interpreter::evalExpr case for case)
  //===--------------------------------------------------------------------===//

  /// evalFloat: int/bool values convert from the int part, anything else
  /// reads float lane 0.
  int32_t asFloatRef(const BcValue &V, Type Ty) {
    if (Ty.isInt() || Ty.isBool()) {
      int32_t D = newF();
      emit(BcOp::CvtIF, D, V.I);
      return D;
    }
    return V.F[0];
  }

  /// evalInt: int/bool values read the int part, anything else truncates
  /// float lane 0.
  int32_t asIntRef(const BcValue &V, Type Ty) {
    if (Ty.isInt() || Ty.isBool())
      return V.I;
    int32_t D = newI();
    emit(BcOp::CvtFI, D, V.F[0]);
    return D;
  }

  /// The LF/RF lambda of the scalar Binary case: int converts, non-vector
  /// broadcasts lane 0, vectors index their lane.
  int32_t laneRef(const BcValue &V, Type Ty, int Lane, int32_t CvtCache) {
    if (Ty.isInt() || Ty.isBool())
      return CvtCache;
    if (!Ty.isFloatVector())
      return V.F[0];
    return V.F[Lane];
  }

  /// Pre-converted int operand for laneRef (emitted once per operand, not
  /// once per lane; (float)I is lane-invariant).
  int32_t cvtCacheFor(const BcValue &V, Type Ty) {
    if (!Ty.isInt() && !Ty.isBool())
      return 0;
    int32_t D = newF();
    emit(BcOp::CvtIF, D, V.I);
    return D;
  }

  BcValue emitExpr(const Expr *E) {
    BcValue V;
    if (!Ok)
      return V;
    switch (E->kind()) {
    case ExprKind::IntLit:
      V.I = iconst(static_cast<int>(cast<IntLit>(E)->value()));
      return V;
    case ExprKind::FloatLit:
      V.F[0] = fconst(static_cast<float>(cast<FloatLit>(E)->value()));
      return V;
    case ExprKind::VarRef: {
      const auto *Ref = cast<VarRef>(E);
      if (Ref->ResolvedSlot >= 0) {
        for (int L = 0; L < P.KW; ++L)
          V.F[L] = slotF(Ref->ResolvedSlot, L);
        V.I = slotI(Ref->ResolvedSlot);
        return V;
      }
      if (Ref->ResolvedScalarParam < 0) {
        Ok = false;
        return V;
      }
      long long Arg =
          In.ScalarArgs[static_cast<size_t>(Ref->ResolvedScalarParam)];
      if (E->type().isFloat())
        V.F[0] = fconst(static_cast<float>(Arg));
      else
        V.I = iconst(static_cast<int>(Arg));
      return V;
    }
    case ExprKind::BuiltinRef:
      V.I = bcRef(BcPlane::IBuiltin,
                  static_cast<int32_t>(cast<BuiltinRef>(E)->id()));
      return V;
    case ExprKind::ArrayRef:
      return emitLoad(cast<ArrayRef>(E));
    case ExprKind::Member: {
      const auto *M = cast<Member>(E);
      BcValue Base = emitExpr(M->baseExpr());
      if (M->field() < 0 || M->field() > 3) {
        Ok = false;
        return V;
      }
      V.F[0] = Base.F[M->field()];
      return V;
    }
    case ExprKind::Unary: {
      const auto *U = cast<Unary>(E);
      BcValue Sub = emitExpr(U->sub());
      CurDyn += 1;
      if (U->op() == UnOp::Not) {
        V.I = newI();
        emit(BcOp::NotI, V.I, Sub.I);
        return V;
      }
      if (U->type().isInt()) {
        V.I = newI();
        emit(BcOp::NegI, V.I, Sub.I);
        return V;
      }
      // The scalar interpreter negates all four lanes; lanes the kernel
      // cannot observe (>= KW) are elided, lanes beyond the operand width
      // become -0.0 exactly as -Sub.F1 of a zeroed field does.
      for (int L = 0; L < P.KW; ++L) {
        V.F[L] = newF();
        emit(BcOp::NegF, V.F[L], Sub.F[L]);
      }
      return V;
    }
    case ExprKind::Call: {
      const auto *C = cast<Call>(E);
      int32_t Args[2] = {BcFZero, BcFZero};
      for (size_t I = 0; I < C->args().size() && I < 2; ++I) {
        const Expr *AE = C->args()[I];
        Args[I] = asFloatRef(emitExpr(AE), AE->type());
      }
      CurDyn += 2;
      CurFlops += 2;
      const std::string &Fn = C->callee();
      BcCallee Callee;
      if (Fn == "sqrtf")
        Callee = BcCallee::Sqrt;
      else if (Fn == "fabsf")
        Callee = BcCallee::Fabs;
      else if (Fn == "fminf")
        Callee = BcCallee::Fmin;
      else if (Fn == "fmaxf")
        Callee = BcCallee::Fmax;
      else if (Fn == "expf")
        Callee = BcCallee::Exp;
      else if (Fn == "logf")
        Callee = BcCallee::Log;
      else if (Fn == "sinf")
        Callee = BcCallee::Sin;
      else if (Fn == "cosf")
        Callee = BcCallee::Cos;
      else {
        Ok = false; // scalar path reports "unknown builtin function"
        return V;
      }
      V.F[0] = newF();
      emit(C->args().size() >= 2 ? BcOp::Call2 : BcOp::Call1, V.F[0],
           Args[0], Args[1], static_cast<uint8_t>(Callee));
      return V;
    }
    case ExprKind::Binary:
      return emitBinary(cast<Binary>(E));
    }
    Ok = false;
    return V;
  }

  BcValue emitBinary(const Binary *B) {
    BcValue V;
    BcValue L = emitExpr(B->lhs());
    BcValue R = emitExpr(B->rhs());
    if (!Ok)
      return V;
    Type LTy = B->lhs()->type(), RTy = B->rhs()->type();
    CurDyn += 1;
    BinOp Op = B->op();

    if (B->type().isBool()) {
      BcCmp Cmp;
      switch (Op) {
      case BinOp::LT:
        Cmp = BcCmp::LT;
        break;
      case BinOp::GT:
        Cmp = BcCmp::GT;
        break;
      case BinOp::LE:
        Cmp = BcCmp::LE;
        break;
      case BinOp::GE:
        Cmp = BcCmp::GE;
        break;
      case BinOp::EQ:
        Cmp = BcCmp::EQ;
        break;
      case BinOp::NE:
        Cmp = BcCmp::NE;
        break;
      case BinOp::LAnd:
        V.I = newI();
        emit(BcOp::AndI, V.I, L.I, R.I);
        return V;
      case BinOp::LOr:
        V.I = newI();
        emit(BcOp::OrI, V.I, L.I, R.I);
        return V;
      default:
        Ok = false; // scalar path reports "bad comparison operator"
        return V;
      }
      // The scalar FloatCmp test is isFloat(), not isFloatVector(): a
      // vector operand compares its (zero) int part. Reproduce exactly.
      bool FloatCmp = LTy.isFloat() || RTy.isFloat();
      V.I = newI();
      if (FloatCmp) {
        int32_t A = (LTy.isInt() || LTy.isBool()) ? cvtCacheFor(L, LTy)
                                                  : L.F[0];
        int32_t C = (RTy.isInt() || RTy.isBool()) ? cvtCacheFor(R, RTy)
                                                  : R.F[0];
        emit(BcOp::CmpFF, V.I, A, C, static_cast<uint8_t>(Cmp));
      } else {
        emit(BcOp::CmpII, V.I, L.I, R.I, static_cast<uint8_t>(Cmp));
      }
      return V;
    }

    if (B->type().isInt()) {
      BcOp IOp;
      switch (Op) {
      case BinOp::Add:
        IOp = BcOp::AddI;
        break;
      case BinOp::Sub:
        IOp = BcOp::SubI;
        break;
      case BinOp::Mul:
        IOp = BcOp::MulI;
        break;
      case BinOp::Div:
        IOp = BcOp::DivI;
        break;
      case BinOp::Rem:
        IOp = BcOp::RemI;
        break;
      default:
        Ok = false; // scalar path reports "bad integer operator"
        return V;
      }
      V.I = newI();
      emit(IOp, V.I, L.I, R.I);
      return V;
    }

    if (!B->type().isFloat() && !B->type().isFloatVector()) {
      Ok = false;
      return V;
    }
    BcOp FOp;
    switch (Op) {
    case BinOp::Add:
      FOp = BcOp::AddF;
      break;
    case BinOp::Sub:
      FOp = BcOp::SubF;
      break;
    case BinOp::Mul:
      FOp = BcOp::MulF;
      break;
    case BinOp::Div:
      FOp = BcOp::DivF;
      break;
    default:
      Ok = false; // scalar path reports "bad float operator"
      return V;
    }
    int Lanes = B->type().vectorWidth();
    int32_t LCvt = cvtCacheFor(L, LTy);
    int32_t RCvt = cvtCacheFor(R, RTy);
    for (int Lane = 0; Lane < Lanes; ++Lane) {
      V.F[Lane] = newF();
      emit(FOp, V.F[Lane], laneRef(L, LTy, Lane, LCvt),
           laneRef(R, RTy, Lane, RCvt));
    }
    CurFlops += (Op == BinOp::Div ? 4.0 : 1.0) * Lanes;
    return V;
  }

  //===--------------------------------------------------------------------===//
  // Array accesses
  //===--------------------------------------------------------------------===//

  /// Flattened element index (mirrors Interpreter::flattenIndex). A
  /// subscript-count mismatch is a scalar-path runtime diagnostic, so the
  /// whole kernel falls back.
  int32_t emitFlatten(const ArrayRef *A) {
    int32_t Lt = newL();
    if (A->vecWidth() > 1) {
      const Expr *IE = A->index(0);
      int32_t Idx = asIntRef(emitExpr(IE), IE->type());
      emit(BcOp::SetL, Lt, Idx, 0, 0, 0, 1);
      return Lt;
    }
    const std::vector<long long> *Strides = nullptr;
    if (A->ResolvedShared >= 0)
      Strides = &In.Shareds[static_cast<size_t>(A->ResolvedShared)].Strides;
    else if (A->ResolvedGlobal >= 0)
      Strides = &In.Globals[static_cast<size_t>(A->ResolvedGlobal)].Strides;
    else {
      Ok = false;
      return Lt;
    }
    if (A->numIndices() != Strides->size()) {
      Ok = false; // scalar path reports the dimension mismatch
      return Lt;
    }
    for (size_t D = 0; D < Strides->size(); ++D) {
      const Expr *IE = A->index(static_cast<unsigned>(D));
      int32_t Idx = asIntRef(emitExpr(IE), IE->type());
      emit(D == 0 ? BcOp::SetL : BcOp::MadL, Lt, Idx, 0, 0, 0,
           (*Strides)[D]);
    }
    return Lt;
  }

  bool fillAccess(BcAccess &AC, const ArrayRef *A) {
    AC.Site = A;
    AC.AccessLanes =
        A->type().isFloatVector() ? A->type().vectorWidth() : 1;
    if (A->ResolvedShared >= 0) {
      AC.Shared = true;
      AC.ArrayIdx = A->ResolvedShared;
      AC.Factor = In.Shareds[static_cast<size_t>(A->ResolvedShared)].ElemLanes;
      return true;
    }
    if (A->ResolvedGlobal >= 0) {
      AC.Shared = false;
      AC.ArrayIdx = A->ResolvedGlobal;
      AC.Factor =
          A->vecWidth() > 1
              ? A->vecWidth()
              : In.Globals[static_cast<size_t>(A->ResolvedGlobal)].ElemLanes;
      return true;
    }
    Ok = false;
    return false;
  }

  const void *arrayKey(bool Shared, int Idx) {
    return Shared ? static_cast<const void *>(&In.Shareds[Idx])
                  : static_cast<const void *>(&In.Globals[Idx]);
  }

  BcValue emitLoad(const ArrayRef *A) {
    BcValue V;
    int32_t Flat = emitFlatten(A);
    if (!Ok)
      return V;
    BcAccess AC;
    if (!fillAccess(AC, A))
      return V;
    AC.IsStore = false;
    AC.Flat = Flat;
    if (CurStoreTarget && arrayKey(AC.Shared, AC.ArrayIdx) == CurStoreTarget)
      Ok = false;
    CurDyn += 2; // address computation + issue
    for (int L = 0; L < AC.AccessLanes; ++L) {
      AC.Lane[L] = newF();
      V.F[L] = AC.Lane[L];
    }
    int32_t Idx = static_cast<int32_t>(P.Accesses.size());
    P.Accesses.push_back(AC);
    emit(BcOp::Load, 0, 0, 0, 0, Idx);
    return V;
  }

  void emitStore(const ArrayRef *A, const BcValue &R) {
    BcAccess AC;
    if (!fillAccess(AC, A))
      return;
    // Phase-2 index re-evaluation: a load of the array being stored inside
    // its own index expressions would interleave reads and writes per
    // thread in the scalar engine but range-at-a-time here, so such a
    // kernel does not lower and runs on the scalar walk.
    CurStoreTarget = arrayKey(AC.Shared, AC.ArrayIdx);
    int32_t Flat = emitFlatten(A);
    CurStoreTarget = nullptr;
    if (!Ok)
      return;
    AC.IsStore = true;
    AC.Flat = Flat;
    for (int L = 0; L < AC.AccessLanes; ++L)
      AC.Lane[L] = R.F[L];
    int32_t Idx = static_cast<int32_t>(P.Accesses.size());
    P.Accesses.push_back(AC);
    emit(BcOp::Store, 0, 0, 0, 0, Idx);
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  int32_t addStmt(BcStmt S) {
    P.Stmts.push_back(std::move(S));
    return static_cast<int32_t>(P.Stmts.size()) - 1;
  }

  int32_t compileStmt(Stmt *S) {
    // Stack discipline: sibling statements reuse each other's temp planes.
    int F0 = FCur, I0 = ICur, L0 = LCur;
    int32_t Idx = compileStmtImpl(S);
    FCur = F0;
    ICur = I0;
    LCur = L0;
    return Idx;
  }

  int32_t compileStmtImpl(Stmt *S) {
    if (!Ok)
      return -1;
    switch (S->kind()) {
    case StmtKind::Compound: {
      BcStmt B;
      B.K = BcStmt::Kind::Compound;
      std::vector<int32_t> Children;
      for (Stmt *Child : cast<CompoundStmt>(S)->body())
        Children.push_back(compileStmt(Child));
      B.Children = std::move(Children);
      return addStmt(std::move(B));
    }
    case StmtKind::Decl: {
      auto *D = cast<DeclStmt>(S);
      BcStmt B;
      B.K = BcStmt::Kind::Decl;
      if (D->isShared() || !D->init())
        return addStmt(std::move(B)); // no-op, CommitSlot stays -1
      if (D->ResolvedSlot < 0) {
        Ok = false;
        return -1;
      }
      B.MMWrap = true;
      RangeMark M = beginRange();
      BcValue V = emitExpr(D->init());
      Type Ty = D->declType();
      Type IT = D->init()->type();
      // Implicit conversion to the declared type (note: unlike Assign, no
      // isBool() guard on the float side — scalar quirk preserved).
      if (Ty.isInt() && !IT.isInt() && !IT.isBool()) {
        V.I = newI();
        emit(BcOp::CvtFI, V.I, V.F[0]);
      } else if (!Ty.isInt() && (IT.isInt() || IT.isBool())) {
        int32_t D2 = newF();
        emit(BcOp::CvtIF, D2, V.I);
        V.F[0] = D2;
      }
      B.Eval = endRange(M);
      B.CommitSlot = D->ResolvedSlot;
      B.CommitVal = V;
      return addStmt(std::move(B));
    }
    case StmtKind::Assign:
      return compileAssign(cast<AssignStmt>(S));
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      BcStmt B;
      B.K = BcStmt::Kind::If;
      B.MMWrap = true;
      RangeMark M = beginRange();
      BcValue C = emitExpr(If->cond());
      B.Eval = endRange(M);
      Type CTy = If->cond()->type();
      B.CondIsInt = CTy.isBool() || CTy.isInt();
      B.CondRef = B.CondIsInt ? C.I : C.F[0];
      int32_t Self = addStmt(std::move(B));
      int32_t Then = compileStmt(If->thenBody());
      int32_t Else = If->elseBody() ? compileStmt(If->elseBody()) : -1;
      P.Stmts[static_cast<size_t>(Self)].ThenChild = Then;
      P.Stmts[static_cast<size_t>(Self)].ElseChild = Else;
      return Self;
    }
    case StmtKind::For: {
      auto *F = cast<ForStmt>(S);
      BcStmt B;
      B.K = BcStmt::Kind::For;
      B.IterSlot = F->IterSlot;
      B.Cmp = static_cast<uint8_t>(F->cmp());
      B.SKind = static_cast<uint8_t>(F->stepKind());
      if (B.IterSlot < 0) {
        Ok = false;
        return -1;
      }
      RangeMark M = beginRange();
      BcValue VI = emitExpr(F->init());
      B.InitRef = asIntRef(VI, F->init()->type());
      B.InitR = endRange(M);

      M = beginRange();
      BcValue VB = emitExpr(F->bound());
      B.BoundRef = asIntRef(VB, F->bound()->type());
      B.BoundR = endRange(M);

      M = beginRange();
      BcValue VS = emitExpr(F->step());
      B.StepRef = asIntRef(VS, F->step()->type());
      B.StepR = endRange(M);

      int32_t Self = addStmt(std::move(B));
      int32_t Body = compileStmt(F->body());
      P.Stmts[static_cast<size_t>(Self)].BodyChild = Body;
      return Self;
    }
    case StmtKind::While: {
      auto *W = cast<WhileStmt>(S);
      BcStmt B;
      B.K = BcStmt::Kind::While;
      RangeMark M = beginRange();
      BcValue C = emitExpr(W->cond());
      B.Eval = endRange(M);
      B.Eval.DynOps += 1; // condition re-evaluation per round
      Type CTy = W->cond()->type();
      B.CondIsInt = CTy.isBool() || CTy.isInt();
      B.CondRef = B.CondIsInt ? C.I : C.F[0];
      int32_t Self = addStmt(std::move(B));
      int32_t Body = compileStmt(W->body());
      P.Stmts[static_cast<size_t>(Self)].BodyChild = Body;
      return Self;
    }
    case StmtKind::Sync: {
      BcStmt B;
      B.K = BcStmt::Kind::Sync;
      B.IsGlobal = cast<SyncStmt>(S)->isGlobal();
      return addStmt(std::move(B));
    }
    }
    Ok = false;
    return -1;
  }

  int32_t compileAssign(AssignStmt *A) {
    BcStmt B;
    B.K = BcStmt::Kind::Assign;
    B.MMWrap = true;
    Expr *LHS = A->lhs();
    Type LTy = LHS->type();

    RangeMark M = beginRange();
    BcValue R = emitExpr(A->rhs());
    Type RTy = A->rhs()->type();
    // Convert RHS to LHS type (with the Assign-only isBool() guard).
    if (LTy.isInt() && !RTy.isInt() && !RTy.isBool()) {
      R.I = newI();
      emit(BcOp::CvtFI, R.I, R.F[0]);
    } else if (!LTy.isInt() && !LTy.isBool() &&
               (RTy.isInt() || RTy.isBool())) {
      int32_t D = newF();
      emit(BcOp::CvtIF, D, R.I);
      R.F[0] = D;
    }
    if (A->op() != AssignOp::Assign) {
      BcValue Old = emitExpr(LHS);
      if (!Ok)
        return -1;
      if (LTy.isInt()) {
        BcOp IOp = A->op() == AssignOp::AddAssign   ? BcOp::AddI
                   : A->op() == AssignOp::SubAssign ? BcOp::SubI
                                                    : BcOp::MulI;
        // R keeps its (RHS) float lanes; only the int part combines.
        int32_t D = newI();
        emit(IOp, D, Old.I, R.I);
        R.I = D;
      } else {
        BcOp FOp = A->op() == AssignOp::AddAssign   ? BcOp::AddF
                   : A->op() == AssignOp::SubAssign ? BcOp::SubF
                                                    : BcOp::MulF;
        int Lanes = LTy.isFloatVector() ? LTy.vectorWidth() : 1;
        BcValue NewV = Old; // lanes beyond the op width and the int part
                            // keep the old value (R = Old in the scalar)
        for (int Lane = 0; Lane < Lanes; ++Lane) {
          NewV.F[Lane] = newF();
          emit(FOp, NewV.F[Lane], Old.F[Lane], R.F[Lane]);
        }
        R = NewV;
        CurFlops += Lanes;
      }
    }
    B.Eval = endRange(M);

    M = beginRange();
    if (auto *V = dyn_cast<VarRef>(LHS)) {
      if (V->ResolvedSlot < 0) {
        Ok = false; // store to scalar parameter (scalar path asserts)
        return -1;
      }
      B.CommitSlot = V->ResolvedSlot;
      B.CommitVal = R;
    } else if (auto *Arr = dyn_cast<ArrayRef>(LHS)) {
      emitStore(Arr, R);
    } else if (auto *Mem = dyn_cast<Member>(LHS)) {
      auto *BaseVar = dyn_cast<VarRef>(Mem->baseExpr());
      if (!BaseVar || BaseVar->ResolvedSlot < 0 || Mem->field() < 0 ||
          Mem->field() > 3) {
        Ok = false; // scalar path reports the unsupported target
        return -1;
      }
      B.CommitSlot = BaseVar->ResolvedSlot;
      B.CommitField = Mem->field();
      B.CommitVal = R;
    } else {
      Ok = false;
      return -1;
    }
    B.Commit = endRange(M);
    B.Commit.DynOps += 1; // per-thread commit
    return addStmt(std::move(B));
  }
};

std::unique_ptr<BcProgram> compileBytecode(const Interpreter &Interp) {
  return BcBuilder(Interp).build();
}

} // namespace gpuc
