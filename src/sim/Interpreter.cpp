//===-- sim/Interpreter.cpp - SPMD kernel interpreter ---------------------===//

#include "sim/Interpreter.h"

#include "ast/Walk.h"
#include "sim/Bytecode.h"
#include "sim/VectorExec.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include <sys/mman.h>

using namespace gpuc;

Interpreter::Interpreter(const DeviceSpec &Device, const KernelFunction &K,
                         BufferSet &Buffers, DiagnosticsEngine &Diags)
    : Dev(Device), K(K), Buffers(Buffers), Diags(Diags) {}

// Out of line: ~unique_ptr<BcProgram> needs the complete type.
Interpreter::~Interpreter() {
  for (const auto &[Addr, Bytes] : ZeroMappings)
    munmap(Addr, Bytes);
}

void Interpreter::reportOnce(const std::string &Message) {
  if (ReportedRuntimeError)
    return;
  ReportedRuntimeError = true;
  Failed = true;
  Diags.error(SourceLocation(), Message);
}

int Interpreter::slotFor(const std::string &Name) {
  auto [It, Inserted] = SlotByName.try_emplace(Name, NumSlots);
  if (Inserted)
    ++NumSlots;
  return It->second;
}

bool Interpreter::bindGlobal(const ParamDecl &P, UnboundArrays Unbound,
                             GlobalArray &G) {
  const long long Floats = P.elemCount() * P.ElemTy.vectorWidth();
  if (Buffers.has(P.Name) || Unbound == UnboundArrays::InBufferSet) {
    std::vector<float> &B =
        Buffers.has(P.Name)
            ? Buffers.data(P.Name)
            : Buffers.alloc(P.Name, static_cast<size_t>(Floats));
    G.Data = B.data();
    G.Size = B.size();
    if (static_cast<long long>(G.Size) >= Floats)
      return true;
    Diags.error(SourceLocation(),
                strFormat("buffer '%s' has %zu floats, kernel needs %lld",
                          P.Name.c_str(), G.Size, Floats));
    return false;
  }
  // A private anonymous mapping reads as zero and takes memory only for
  // the pages a store touches. Heap zeroing (calloc) would not do: once
  // the allocator's mmap threshold adapts, it serves the next large block
  // from the heap and memsets every page.
  const size_t Bytes =
      std::max<size_t>(static_cast<size_t>(Floats), 1) * sizeof(float);
  void *Addr = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Addr == MAP_FAILED) {
    Diags.error(SourceLocation(),
                strFormat("cannot map %zu bytes for buffer '%s'", Bytes,
                          P.Name.c_str()));
    return false;
  }
  ZeroMappings.emplace_back(Addr, Bytes);
  G.Data = static_cast<float *>(Addr);
  G.Size = static_cast<size_t>(Floats);
  return true;
}

bool Interpreter::prepare(UnboundArrays Unbound) {
  Prepared = true;
  // Bind scalar arguments (runtime value wins over compile-time binding).
  ScalarArgs.assign(K.params().size(), 0);
  long long NextAddr = 0x1000;
  for (size_t PI = 0; PI < K.params().size(); ++PI) {
    const ParamDecl &P = K.params()[PI];
    if (!P.IsArray) {
      if (Buffers.hasScalar(P.Name))
        ScalarArgs[PI] = Buffers.scalar(P.Name);
      else
        ScalarArgs[PI] = K.scalarBindingOr(P.Name, 0);
      continue;
    }
    GlobalArray G;
    if (!bindGlobal(P, Unbound, G)) {
      Failed = true;
      return false;
    }
    G.ElemCount = P.elemCount();
    G.ElemLanes = P.ElemTy.vectorWidth();
    // Row-major element strides.
    G.Strides.assign(P.Dims.size(), 1);
    for (int D = static_cast<int>(P.Dims.size()) - 2; D >= 0; --D)
      G.Strides[D] = G.Strides[D + 1] * P.Dims[D + 1];
    // cudaMalloc-style 512-byte aligned base address.
    NextAddr = (NextAddr + 511) / 512 * 512;
    G.BaseAddr = NextAddr;
    NextAddr += P.sizeInBytes() + 512;
    Globals.push_back(std::move(G));
  }

  // Assign frame slots and shared offsets, then annotate references.
  SharedBytesPerBlock = 0;
  std::map<std::string, int> SharedIdByName;
  forEachStmt(K.body(), [&](Stmt *S) {
    if (auto *D = dyn_cast<DeclStmt>(S)) {
      if (D->isShared()) {
        if (SharedIdByName.count(D->name()))
          return;
        SharedArray SA;
        SA.ByteOffset = SharedBytesPerBlock;
        SA.ElemCount = D->sharedElemCount();
        SA.ElemLanes = D->declType().vectorWidth();
        SA.Strides.assign(D->sharedDims().size(), 1);
        for (int I = static_cast<int>(D->sharedDims().size()) - 2; I >= 0;
             --I)
          SA.Strides[I] = SA.Strides[I + 1] * D->sharedDims()[I + 1];
        SharedBytesPerBlock +=
            SA.ElemCount * D->declType().sizeInBytes();
        D->ResolvedShared = static_cast<int>(Shareds.size());
        SharedIdByName[D->name()] = D->ResolvedShared;
        Shareds.push_back(std::move(SA));
      } else {
        D->ResolvedSlot = slotFor(D->name());
      }
    } else if (auto *F = dyn_cast<ForStmt>(S)) {
      F->IterSlot = slotFor(F->iterName());
    } else if (isa<SyncStmt>(S) && cast<SyncStmt>(S)->isGlobal()) {
      HasGlobalSync = true;
    }
  });

  bool ResolveOk = true;
  forEachExpr(K.body(), [&](Expr *E) {
    if (auto *V = dyn_cast<VarRef>(E)) {
      auto It = SlotByName.find(V->name());
      if (It != SlotByName.end()) {
        V->ResolvedSlot = It->second;
        return;
      }
      V->ResolvedSlot = -1;
      for (size_t PI = 0; PI < K.params().size(); ++PI) {
        if (!K.params()[PI].IsArray && K.params()[PI].Name == V->name()) {
          V->ResolvedScalarParam = static_cast<int>(PI);
          return;
        }
      }
      Diags.error(SourceLocation(),
                  strFormat("unresolved variable '%s'", V->name().c_str()));
      ResolveOk = false;
    } else if (auto *A = dyn_cast<ArrayRef>(E)) {
      A->ResolvedGlobal = -1;
      A->ResolvedShared = -1;
      auto SIt = SharedIdByName.find(A->base());
      if (SIt != SharedIdByName.end()) {
        A->ResolvedShared = SIt->second;
        return;
      }
      int GI = 0;
      for (const ParamDecl &P : K.params()) {
        if (!P.IsArray)
          continue;
        if (P.Name == A->base()) {
          A->ResolvedGlobal = GI;
          return;
        }
        ++GI;
      }
      Diags.error(SourceLocation(),
                  strFormat("unresolved array '%s'", A->base().c_str()));
      ResolveOk = false;
    }
  });
  if (!ResolveOk)
    Failed = true;
  return ResolveOk;
}

void Interpreter::setupGroup(long long NumThreads, bool ScalarFrame) {
  GroupThreads = NumThreads;
  if (ScalarFrame) {
    Frame.assign(static_cast<size_t>(NumSlots) * NumThreads, Value());
    RhsScratch.resize(static_cast<size_t>(NumThreads));
  } else {
    // The vector executor keeps slot values in its own SoA planes.
    Frame.clear();
    RhsScratch.clear();
  }
  TidX.resize(NumThreads);
  TidY.resize(NumThreads);
  IdX.resize(NumThreads);
  IdY.resize(NumThreads);
  BidX.resize(NumThreads);
  BidY.resize(NumThreads);
  FullMask.assign(static_cast<size_t>(NumThreads), 1);
}

bool Interpreter::vectorEligible(const InterpOptions &O) {
  if (O.Backend == InterpBackend::Scalar)
    return false;
  if (!BCTried) {
    BCTried = true;
    BC = compileBytecode(*this);
  }
  return BC != nullptr;
}

std::vector<uint8_t> &Interpreter::acquireMask() {
  if (MaskTop == MaskPool.size())
    MaskPool.emplace_back();
  std::vector<uint8_t> &M = MaskPool[MaskTop++];
  M.assign(static_cast<size_t>(GroupThreads), 0);
  return M;
}

void Interpreter::bindBlock(long long BlockId, long long ThreadBase) {
  const LaunchConfig &L = K.launch();
  // Affine block-id permutation (identity by default; Section 3.7's
  // diagonal reordering and the generalized family of core/AffineLayout).
  long long EBidX = 0, EBidY = 0;
  L.logicalBlock(BlockId, EBidX, EBidY);
  for (long long T = 0; T < L.threadsPerBlock(); ++T) {
    long long G = ThreadBase + T;
    TidX[G] = static_cast<int>(T % L.BlockDimX);
    TidY[G] = static_cast<int>(T / L.BlockDimX);
    BidX[G] = EBidX;
    BidY[G] = EBidY;
    IdX[G] = EBidX * L.BlockDimX + TidX[G];
    IdY[G] = EBidY * L.BlockDimY + TidY[G];
  }
}

void Interpreter::runBlocks(long long Begin, long long End,
                            const InterpOptions &Options) {
  assert(Prepared && "call prepare() first");
  assert(!(Options.Races && Options.LoopSampleThreshold > 0) &&
         "race-logged runs never sample");
  Opt = &Options;
  BlocksInGroup = 1;
  const bool Vec = vectorEligible(Options);
  if (!Vec && Options.Backend == InterpBackend::Vector)
    ScalarFallback = true;
  setupGroup(K.launch().threadsPerBlock(), /*ScalarFrame=*/!Vec);
  SharedData.assign(static_cast<size_t>((SharedBytesPerBlock + 3) / 4), 0.0f);
  if (Vec) {
    VectorExec VX(*this, *BC);
    for (long long B = Begin; B < End && !Failed; ++B) {
      bindBlock(B, 0);
      CurBlock = B;
      raceCheckSetup();
      VX.bindBlockPlanes();
      VX.run();
    }
  } else {
    for (long long B = Begin; B < End && !Failed; ++B) {
      bindBlock(B, 0);
      CurBlock = B;
      raceCheckSetup();
      execStmt(K.body(), FullMask);
    }
  }
  Opt = nullptr;
}

void Interpreter::runGrid(const InterpOptions &Options) {
  assert(Prepared && "call prepare() first");
  assert(!(Options.Races && Options.LoopSampleThreshold > 0) &&
         "race-logged runs never sample");
  Opt = &Options;
  const LaunchConfig &L = K.launch();
  long long Blocks = L.numBlocks();
  BlocksInGroup = Blocks;
  const bool Vec = vectorEligible(Options);
  if (!Vec && Options.Backend == InterpBackend::Vector)
    ScalarFallback = true;
  setupGroup(L.totalThreads(), /*ScalarFrame=*/!Vec);
  SharedData.assign(
      static_cast<size_t>((SharedBytesPerBlock + 3) / 4 * Blocks), 0.0f);
  for (long long B = 0; B < Blocks; ++B)
    bindBlock(B, B * L.threadsPerBlock());
  CurBlock = 0;
  raceCheckSetup();
  if (Vec) {
    VectorExec VX(*this, *BC);
    VX.bindBlockPlanes();
    VX.run();
  } else {
    execStmt(K.body(), FullMask);
  }
  Opt = nullptr;
}

//===----------------------------------------------------------------------===//
// Dynamic race sanitizer
//===----------------------------------------------------------------------===//

void Interpreter::raceCheckSetup() {
  if (!Opt || !Opt->Races)
    return;
  CurPhase = 0;
  ShWr.assign(SharedData.size(), 0);
  ShRd1.assign(SharedData.size(), 0);
  ShRd2.assign(SharedData.size(), 0);
}

void Interpreter::raceCheckBarrier() {
  if (!Opt || !Opt->Races)
    return;
  ++CurPhase;
  Opt->Races->Phases = std::max(Opt->Races->Phases, CurPhase + 1);
  std::fill(ShWr.begin(), ShWr.end(), 0);
  std::fill(ShRd1.begin(), ShRd1.end(), 0);
  std::fill(ShRd2.begin(), ShRd2.end(), 0);
}

void Interpreter::raceCheckAccess(const ArrayRef *A, long long T,
                                  long long AbsWord, long long RelWord,
                                  int Lanes, bool IsWrite,
                                  const float *NewVals,
                                  const float *OldVals) {
  RaceLog &Log = *Opt->Races;
  // In block mode the group is one block and T is already in-block.
  const long long InBlock =
      BlocksInGroup > 1 ? T % K.launch().threadsPerBlock() : T;
  const int Tid = static_cast<int>(InBlock) + 1; // 0 = none
  for (int Lane = 0; Lane < Lanes; ++Lane) {
    const size_t W = static_cast<size_t>(AbsWord + Lane);
    auto Conflict = [&](int Other, bool WriteWrite) {
      // One record per (array, kind, phase) keeps the log readable.
      if (!RaceSeen.insert({A->base(), WriteWrite, CurPhase}).second)
        return;
      RaceRecord R;
      R.Array = A->base();
      R.WriteWrite = WriteWrite;
      R.Phase = CurPhase;
      R.Word = RelWord + Lane;
      R.T1 = Other - 1;
      R.T2 = Tid - 1;
      R.Block = BlocksInGroup > 1 ? T / K.launch().threadsPerBlock()
                                  : CurBlock;
      Log.Races.push_back(std::move(R));
    };
    if (IsWrite) {
      if (ShWr[W] && ShWr[W] != Tid) {
        // Redundant same-value write (bitwise-equal to what an earlier
        // writer deposited this phase): the benign halo-staging overlap.
        const float *CurWord = OldVals ? &OldVals[Lane] : &SharedData[W];
        const bool SameValue =
            NewVals &&
            std::memcmp(CurWord, &NewVals[Lane], sizeof(float)) == 0;
        if (!SameValue)
          Conflict(ShWr[W], /*WriteWrite=*/true);
      } else if (!ShWr[W])
        ShWr[W] = Tid;
      if (ShRd1[W] && ShRd1[W] != Tid)
        Conflict(ShRd1[W], /*WriteWrite=*/false);
      else if (ShRd2[W] && ShRd2[W] != Tid)
        Conflict(ShRd2[W], /*WriteWrite=*/false);
    } else {
      if (ShWr[W] && ShWr[W] != Tid)
        Conflict(ShWr[W], /*WriteWrite=*/false);
      if (!ShRd1[W])
        ShRd1[W] = Tid;
      else if (ShRd1[W] != Tid && !ShRd2[W])
        ShRd2[W] = Tid;
    }
  }
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

static float asFloatVal(const Interpreter *, Type Ty, float F0, int I) {
  return (Ty.isInt() || Ty.isBool()) ? static_cast<float>(I) : F0;
}

float Interpreter::evalFloat(const Expr *E, long long T) {
  Value V = evalExpr(E, T);
  return asFloatVal(this, E->type(), V.F0, V.I);
}

int Interpreter::evalInt(const Expr *E, long long T) {
  Value V = evalExpr(E, T);
  if (E->type().isInt() || E->type().isBool())
    return V.I;
  return static_cast<int>(V.F0);
}

Interpreter::Value Interpreter::evalExpr(const Expr *E, long long T) {
  const bool Collect = Opt && Opt->CollectStats;
  Value V;
  switch (E->kind()) {
  case ExprKind::IntLit:
    V.I = static_cast<int>(cast<IntLit>(E)->value());
    return V;
  case ExprKind::FloatLit:
    V.F0 = static_cast<float>(cast<FloatLit>(E)->value());
    return V;
  case ExprKind::VarRef: {
    const auto *Ref = cast<VarRef>(E);
    if (Ref->ResolvedSlot >= 0)
      return slot(Ref->ResolvedSlot, T);
    assert(Ref->ResolvedScalarParam >= 0 && "unresolved VarRef");
    long long Arg = ScalarArgs[static_cast<size_t>(Ref->ResolvedScalarParam)];
    if (E->type().isFloat())
      V.F0 = static_cast<float>(Arg);
    else
      V.I = static_cast<int>(Arg);
    return V;
  }
  case ExprKind::BuiltinRef: {
    switch (cast<BuiltinRef>(E)->id()) {
    case BuiltinId::Idx:
      V.I = static_cast<int>(IdX[T]);
      break;
    case BuiltinId::Idy:
      V.I = static_cast<int>(IdY[T]);
      break;
    case BuiltinId::Tidx:
      V.I = TidX[T];
      break;
    case BuiltinId::Tidy:
      V.I = TidY[T];
      break;
    case BuiltinId::Bidx:
      V.I = static_cast<int>(BidX[T]);
      break;
    case BuiltinId::Bidy:
      V.I = static_cast<int>(BidY[T]);
      break;
    case BuiltinId::BlockDimX:
      V.I = K.launch().BlockDimX;
      break;
    case BuiltinId::BlockDimY:
      V.I = K.launch().BlockDimY;
      break;
    case BuiltinId::GridDimX:
      V.I = static_cast<int>(K.launch().GridDimX);
      break;
    case BuiltinId::GridDimY:
      V.I = static_cast<int>(K.launch().GridDimY);
      break;
    }
    return V;
  }
  case ExprKind::ArrayRef:
    return loadArray(cast<ArrayRef>(E), T, /*CountStats=*/true);
  case ExprKind::Member: {
    const auto *M = cast<Member>(E);
    Value Base = evalExpr(M->baseExpr(), T);
    switch (M->field()) {
    case 0:
      V.F0 = Base.F0;
      break;
    case 1:
      V.F0 = Base.F1;
      break;
    case 2:
      V.F0 = Base.F2;
      break;
    default:
      V.F0 = Base.F3;
      break;
    }
    return V;
  }
  case ExprKind::Unary: {
    const auto *U = cast<Unary>(E);
    Value Sub = evalExpr(U->sub(), T);
    if (Collect)
      Opt->Stats->DynOps += 1;
    if (U->op() == UnOp::Not) {
      V.I = !Sub.I;
      return V;
    }
    if (U->type().isInt()) {
      V.I = -Sub.I;
    } else {
      V.F0 = -Sub.F0;
      V.F1 = -Sub.F1;
      V.F2 = -Sub.F2;
      V.F3 = -Sub.F3;
    }
    return V;
  }
  case ExprKind::Call: {
    const auto *C = cast<Call>(E);
    float Args[2] = {0, 0};
    for (size_t I = 0; I < C->args().size() && I < 2; ++I)
      Args[I] = evalFloat(C->args()[I], T);
    if (Collect) {
      Opt->Stats->DynOps += 2;
      Opt->Stats->Flops += 2;
    }
    const std::string &Fn = C->callee();
    if (Fn == "sqrtf")
      V.F0 = std::sqrt(Args[0]);
    else if (Fn == "fabsf")
      V.F0 = std::fabs(Args[0]);
    else if (Fn == "fminf")
      V.F0 = std::min(Args[0], Args[1]);
    else if (Fn == "fmaxf")
      V.F0 = std::max(Args[0], Args[1]);
    else if (Fn == "expf")
      V.F0 = std::exp(Args[0]);
    else if (Fn == "logf")
      V.F0 = std::log(Args[0]);
    else if (Fn == "sinf")
      V.F0 = std::sin(Args[0]);
    else if (Fn == "cosf")
      V.F0 = std::cos(Args[0]);
    else
      reportOnce(strFormat("unknown builtin function '%s'", Fn.c_str()));
    return V;
  }
  case ExprKind::Binary: {
    const auto *B = cast<Binary>(E);
    Value L = evalExpr(B->lhs(), T);
    Value R = evalExpr(B->rhs(), T);
    Type LTy = B->lhs()->type(), RTy = B->rhs()->type();
    if (Collect)
      Opt->Stats->DynOps += 1;
    auto LF = [&](int Lane) {
      float F = Lane == 0 ? L.F0 : Lane == 1 ? L.F1 : Lane == 2 ? L.F2 : L.F3;
      if (LTy.isInt() || LTy.isBool())
        return static_cast<float>(L.I);
      if (!LTy.isFloatVector())
        return L.F0; // scalar broadcast
      return F;
    };
    auto RF = [&](int Lane) {
      float F = Lane == 0 ? R.F0 : Lane == 1 ? R.F1 : Lane == 2 ? R.F2 : R.F3;
      if (RTy.isInt() || RTy.isBool())
        return static_cast<float>(R.I);
      if (!RTy.isFloatVector())
        return R.F0;
      return F;
    };
    BinOp Op = B->op();
    // Comparisons and logical operators produce bool (int 0/1).
    if (E->type().isBool()) {
      bool FloatCmp = LTy.isFloat() || RTy.isFloat();
      double A = FloatCmp ? LF(0) : static_cast<double>(L.I);
      double C = FloatCmp ? RF(0) : static_cast<double>(R.I);
      switch (Op) {
      case BinOp::LT:
        V.I = A < C;
        break;
      case BinOp::GT:
        V.I = A > C;
        break;
      case BinOp::LE:
        V.I = A <= C;
        break;
      case BinOp::GE:
        V.I = A >= C;
        break;
      case BinOp::EQ:
        V.I = A == C;
        break;
      case BinOp::NE:
        V.I = A != C;
        break;
      case BinOp::LAnd:
        V.I = L.I && R.I;
        break;
      case BinOp::LOr:
        V.I = L.I || R.I;
        break;
      default:
        reportOnce("bad comparison operator");
      }
      return V;
    }
    if (E->type().isInt()) {
      switch (Op) {
      case BinOp::Add:
        V.I = L.I + R.I;
        break;
      case BinOp::Sub:
        V.I = L.I - R.I;
        break;
      case BinOp::Mul:
        V.I = L.I * R.I;
        break;
      case BinOp::Div:
        if (R.I == 0) {
          reportOnce("integer division by zero");
          V.I = 0;
        } else {
          V.I = L.I / R.I;
        }
        break;
      case BinOp::Rem:
        if (R.I == 0) {
          reportOnce("integer remainder by zero");
          V.I = 0;
        } else {
          V.I = L.I % R.I;
        }
        break;
      default:
        reportOnce("bad integer operator");
      }
      return V;
    }
    // Float / vector arithmetic, lanewise with scalar broadcast.
    int Lanes = E->type().vectorWidth();
    float Out[4] = {0, 0, 0, 0};
    for (int Lane = 0; Lane < Lanes; ++Lane) {
      float A = LF(Lane), C = RF(Lane);
      switch (Op) {
      case BinOp::Add:
        Out[Lane] = A + C;
        break;
      case BinOp::Sub:
        Out[Lane] = A - C;
        break;
      case BinOp::Mul:
        Out[Lane] = A * C;
        break;
      case BinOp::Div:
        Out[Lane] = A / C;
        break;
      default:
        reportOnce("bad float operator");
      }
    }
    if (Collect)
      Opt->Stats->Flops += (Op == BinOp::Div ? 4.0 : 1.0) * Lanes;
    V.F0 = Out[0];
    V.F1 = Out[1];
    V.F2 = Out[2];
    V.F3 = Out[3];
    return V;
  }
  }
  return V;
}

bool Interpreter::flattenIndex(const ArrayRef *A, long long T,
                               long long &FlatOut) {
  if (A->vecWidth() > 1) {
    // Reinterpreted float2/float4 view: one flat index in vector units.
    FlatOut = evalInt(A->index(0), T);
    return true;
  }
  const std::vector<long long> *Strides;
  size_t NumDims;
  if (A->ResolvedShared >= 0) {
    const SharedArray &SA = Shareds[static_cast<size_t>(A->ResolvedShared)];
    Strides = &SA.Strides;
    NumDims = SA.Strides.size();
  } else {
    const GlobalArray &G = Globals[static_cast<size_t>(A->ResolvedGlobal)];
    Strides = &G.Strides;
    NumDims = G.Strides.size();
  }
  if (A->numIndices() != NumDims) {
    reportOnce(strFormat("array '%s' indexed with %u subscripts, has %zu dims",
                         A->base().c_str(), A->numIndices(), NumDims));
    return false;
  }
  long long Flat = 0;
  for (size_t D = 0; D < NumDims; ++D)
    Flat += static_cast<long long>(evalInt(A->index(D), T)) * (*Strides)[D];
  FlatOut = Flat;
  return true;
}

Interpreter::Value Interpreter::loadArray(const ArrayRef *A, long long T,
                                          bool CountStats) {
  const bool Collect = CountStats && Opt && Opt->CollectStats;
  Value V;
  long long Flat = 0;
  if (!flattenIndex(A, T, Flat))
    return V;
  int AccessLanes = A->type().isFloatVector() ? A->type().vectorWidth() : 1;
  if (Collect)
    Opt->Stats->DynOps += 2; // address computation + issue

  if (A->ResolvedShared >= 0) {
    const SharedArray &SA = Shareds[static_cast<size_t>(A->ResolvedShared)];
    long long FloatOff = SA.ByteOffset / 4 + Flat * SA.ElemLanes;
    long long Lanes = AccessLanes;
    long long Region =
        BlocksInGroup > 1
            ? (T / K.launch().threadsPerBlock()) * (SharedBytesPerBlock / 4)
            : 0;
    if (FloatOff < SA.ByteOffset / 4 ||
        FloatOff + Lanes > SA.ByteOffset / 4 + SA.ElemCount * SA.ElemLanes) {
      reportOnce(strFormat("shared array '%s' access out of bounds",
                           A->base().c_str()));
      return V;
    }
    if (Collect && Opt->MM)
      Opt->MM->recordShared(A, T, SA.ByteOffset + Flat * SA.ElemLanes * 4,
                            AccessLanes * 4);
    if (Opt && Opt->Races)
      raceCheckAccess(A, T, Region + FloatOff,
                      FloatOff - SA.ByteOffset / 4, AccessLanes,
                      /*IsWrite=*/false);
    const float *P = &SharedData[static_cast<size_t>(Region + FloatOff)];
    V.F0 = P[0];
    if (Lanes > 1)
      V.F1 = P[1];
    if (Lanes > 2) {
      V.F2 = P[2];
      V.F3 = P[3];
    }
    return V;
  }

  const GlobalArray &G = Globals[static_cast<size_t>(A->ResolvedGlobal)];
  long long FloatOff = A->vecWidth() > 1 ? Flat * A->vecWidth()
                                         : Flat * G.ElemLanes;
  long long TotalFloats = G.ElemCount * G.ElemLanes;
  if (FloatOff < 0 || FloatOff + AccessLanes > TotalFloats) {
    reportOnce(strFormat("global array '%s' access out of bounds (%lld)",
                         A->base().c_str(), FloatOff));
    return V;
  }
  if (Collect && Opt->MM)
    Opt->MM->recordGlobal(A, T, G.BaseAddr + FloatOff * 4, AccessLanes * 4,
                          /*IsStore=*/false);
  const float *P = &G.Data[static_cast<size_t>(FloatOff)];
  V.F0 = P[0];
  if (AccessLanes > 1)
    V.F1 = P[1];
  if (AccessLanes > 2) {
    V.F2 = P[2];
    V.F3 = P[3];
  }
  return V;
}

void Interpreter::storeArray(const ArrayRef *A, long long T, const Value &V) {
  const bool Collect = Opt && Opt->CollectStats;
  long long Flat = 0;
  if (!flattenIndex(A, T, Flat))
    return;
  int AccessLanes = A->type().isFloatVector() ? A->type().vectorWidth() : 1;

  if (A->ResolvedShared >= 0) {
    const SharedArray &SA = Shareds[static_cast<size_t>(A->ResolvedShared)];
    long long FloatOff = SA.ByteOffset / 4 + Flat * SA.ElemLanes;
    long long Region =
        BlocksInGroup > 1
            ? (T / K.launch().threadsPerBlock()) * (SharedBytesPerBlock / 4)
            : 0;
    if (FloatOff < SA.ByteOffset / 4 ||
        FloatOff + AccessLanes >
            SA.ByteOffset / 4 + SA.ElemCount * SA.ElemLanes) {
      reportOnce(strFormat("shared array '%s' store out of bounds",
                           A->base().c_str()));
      return;
    }
    if (Collect && Opt->MM)
      Opt->MM->recordShared(A, T, SA.ByteOffset + Flat * SA.ElemLanes * 4,
                            AccessLanes * 4);
    if (Opt && Opt->Races) {
      const float NewVals[4] = {V.F0, V.F1, V.F2, V.F3};
      raceCheckAccess(A, T, Region + FloatOff,
                      FloatOff - SA.ByteOffset / 4, AccessLanes,
                      /*IsWrite=*/true, NewVals);
    }
    float *P = &SharedData[static_cast<size_t>(Region + FloatOff)];
    P[0] = V.F0;
    if (AccessLanes > 1)
      P[1] = V.F1;
    if (AccessLanes > 2) {
      P[2] = V.F2;
      P[3] = V.F3;
    }
    return;
  }

  const GlobalArray &G = Globals[static_cast<size_t>(A->ResolvedGlobal)];
  long long FloatOff =
      A->vecWidth() > 1 ? Flat * A->vecWidth() : Flat * G.ElemLanes;
  if (FloatOff < 0 || FloatOff + AccessLanes > G.ElemCount * G.ElemLanes) {
    reportOnce(strFormat("global array '%s' store out of bounds (%lld)",
                         A->base().c_str(), FloatOff));
    return;
  }
  if (Collect && Opt->MM)
    Opt->MM->recordGlobal(A, T, G.BaseAddr + FloatOff * 4, AccessLanes * 4,
                          /*IsStore=*/true);
  float *P = &G.Data[static_cast<size_t>(FloatOff)];
  P[0] = V.F0;
  if (AccessLanes > 1)
    P[1] = V.F1;
  if (AccessLanes > 2) {
    P[2] = V.F2;
    P[3] = V.F3;
  }
}

//===----------------------------------------------------------------------===//
// Statement execution
//===----------------------------------------------------------------------===//

void Interpreter::execStmt(Stmt *S, const std::vector<uint8_t> &Mask) {
  if (Failed)
    return;
  const bool Collect = Opt && Opt->CollectStats;
  switch (S->kind()) {
  case StmtKind::Compound:
    for (Stmt *Child : cast<CompoundStmt>(S)->body()) {
      execStmt(Child, Mask);
      if (Failed)
        return;
    }
    return;
  case StmtKind::Decl: {
    auto *D = cast<DeclStmt>(S);
    if (D->isShared() || !D->init())
      return;
    if (Collect && Opt->MM)
      Opt->MM->beginStatement();
    Type Ty = D->declType();
    for (long long T = 0; T < GroupThreads; ++T) {
      if (!Mask[static_cast<size_t>(T)])
        continue;
      Value V = evalExpr(D->init(), T);
      // Implicit conversion to the declared type.
      if (Ty.isInt() && !D->init()->type().isInt() &&
          !D->init()->type().isBool())
        V.I = static_cast<int>(V.F0);
      else if (!Ty.isInt() && (D->init()->type().isInt() ||
                               D->init()->type().isBool()))
        V.F0 = static_cast<float>(V.I);
      slot(D->ResolvedSlot, T) = V;
    }
    if (Collect && Opt->MM)
      Opt->MM->endStatement(*Opt->Stats);
    return;
  }
  case StmtKind::Assign:
    execAssign(cast<AssignStmt>(S), Mask);
    return;
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    std::vector<uint8_t> &ThenMask = acquireMask();
    std::vector<uint8_t> &ElseMask = acquireMask();
    bool AnyThen = false, AnyElse = false;
    if (Collect && Opt->MM)
      Opt->MM->beginStatement();
    for (long long T = 0; T < GroupThreads; ++T) {
      if (!Mask[static_cast<size_t>(T)])
        continue;
      Value C = evalExpr(If->cond(), T);
      bool Taken = If->cond()->type().isBool() || If->cond()->type().isInt()
                       ? C.I != 0
                       : C.F0 != 0.0f;
      if (Taken) {
        ThenMask[static_cast<size_t>(T)] = 1;
        AnyThen = true;
      } else {
        ElseMask[static_cast<size_t>(T)] = 1;
        AnyElse = true;
      }
    }
    if (Collect && Opt->MM)
      Opt->MM->endStatement(*Opt->Stats);
    if (AnyThen)
      execStmt(If->thenBody(), ThenMask);
    if (AnyElse && If->elseBody())
      execStmt(If->elseBody(), ElseMask);
    releaseMasks(2);
    return;
  }
  case StmtKind::For:
    execFor(cast<ForStmt>(S), Mask);
    return;
  case StmtKind::While:
    execWhile(cast<WhileStmt>(S), Mask);
    return;
  case StmtKind::Sync: {
    auto *Sync = cast<SyncStmt>(S);
    // Barriers must be reached by every thread of the group.
    for (long long T = 0; T < GroupThreads; ++T) {
      if (!Mask[static_cast<size_t>(T)]) {
        reportOnce("barrier inside divergent control flow");
        return;
      }
    }
    if (Collect) {
      if (Sync->isGlobal())
        Opt->Stats->GlobalSyncs += 1;
      else
        Opt->Stats->BlockSyncs += 1;
    }
    raceCheckBarrier();
    return;
  }
  }
}

void Interpreter::execAssign(AssignStmt *A, const std::vector<uint8_t> &Mask) {
  const bool Collect = Opt && Opt->CollectStats;
  if (Collect && Opt->MM)
    Opt->MM->beginStatement();

  Expr *LHS = A->lhs();
  Type LTy = LHS->type();
  // Phase 1: evaluate RHS (and for compound assignment the old LHS value)
  // for every active thread, so SPMD read-after-write hazards within one
  // statement cannot occur.
  for (long long T = 0; T < GroupThreads; ++T) {
    if (!Mask[static_cast<size_t>(T)])
      continue;
    Value R = evalExpr(A->rhs(), T);
    // Convert RHS to LHS type.
    if (LTy.isInt() && !A->rhs()->type().isInt() &&
        !A->rhs()->type().isBool())
      R.I = static_cast<int>(R.F0);
    else if (!LTy.isInt() && !LTy.isBool() &&
             (A->rhs()->type().isInt() || A->rhs()->type().isBool()))
      R.F0 = static_cast<float>(R.I);
    if (A->op() != AssignOp::Assign) {
      Value Old = evalExpr(LHS, T);
      if (LTy.isInt()) {
        switch (A->op()) {
        case AssignOp::AddAssign:
          R.I = Old.I + R.I;
          break;
        case AssignOp::SubAssign:
          R.I = Old.I - R.I;
          break;
        case AssignOp::MulAssign:
          R.I = Old.I * R.I;
          break;
        default:
          break;
        }
      } else {
        int Lanes = LTy.isFloatVector() ? LTy.vectorWidth() : 1;
        float *OldF[4] = {&Old.F0, &Old.F1, &Old.F2, &Old.F3};
        float RF[4] = {R.F0, R.F1, R.F2, R.F3};
        for (int Lane = 0; Lane < Lanes; ++Lane) {
          switch (A->op()) {
          case AssignOp::AddAssign:
            *OldF[Lane] += RF[Lane];
            break;
          case AssignOp::SubAssign:
            *OldF[Lane] -= RF[Lane];
            break;
          case AssignOp::MulAssign:
            *OldF[Lane] *= RF[Lane];
            break;
          default:
            break;
          }
        }
        R = Old;
        if (Collect)
          Opt->Stats->Flops += Lanes;
      }
    }
    RhsScratch[static_cast<size_t>(T)] = R;
  }

  // Phase 2: commit.
  for (long long T = 0; T < GroupThreads; ++T) {
    if (!Mask[static_cast<size_t>(T)])
      continue;
    const Value &R = RhsScratch[static_cast<size_t>(T)];
    if (auto *V = dyn_cast<VarRef>(LHS)) {
      assert(V->ResolvedSlot >= 0 && "store to scalar parameter");
      slot(V->ResolvedSlot, T) = R;
    } else if (auto *Arr = dyn_cast<ArrayRef>(LHS)) {
      storeArray(Arr, T, R);
    } else if (auto *M = dyn_cast<Member>(LHS)) {
      auto *BaseVar = dyn_cast<VarRef>(M->baseExpr());
      if (!BaseVar || BaseVar->ResolvedSlot < 0) {
        reportOnce("unsupported member-assignment target");
        return;
      }
      Value &Slot = slot(BaseVar->ResolvedSlot, T);
      switch (M->field()) {
      case 0:
        Slot.F0 = R.F0;
        break;
      case 1:
        Slot.F1 = R.F0;
        break;
      case 2:
        Slot.F2 = R.F0;
        break;
      default:
        Slot.F3 = R.F0;
        break;
      }
    } else {
      reportOnce("unsupported assignment target");
      return;
    }
    if (Collect)
      Opt->Stats->DynOps += 1;
  }
  if (Collect && Opt->MM)
    Opt->MM->endStatement(*Opt->Stats);
}

bool Interpreter::uniformLoopTrip(ForStmt *F,
                                  const std::vector<uint8_t> &Mask,
                                  long long &Trip) {
  if (F->stepKind() != StepKind::Add)
    return false;
  long long First = -1, Last = -1;
  for (long long T = 0; T < GroupThreads; ++T) {
    if (Mask[static_cast<size_t>(T)]) {
      if (First < 0)
        First = T;
      Last = T;
    }
  }
  if (First < 0)
    return false;
  auto TripFor = [&](long long T, long long &Out) {
    long long Init = evalInt(F->init(), T);
    long long Bound = evalInt(F->bound(), T);
    long long Step = evalInt(F->step(), T);
    if (Step <= 0)
      return false;
    long long Span;
    switch (F->cmp()) {
    case CmpKind::LT:
      Span = Bound - Init;
      break;
    case CmpKind::LE:
      Span = Bound - Init + 1;
      break;
    default:
      return false; // descending additive loops are not sampled
    }
    Out = Span <= 0 ? 0 : (Span + Step - 1) / Step;
    return true;
  };
  long long TripFirst, TripLast;
  if (!TripFor(First, TripFirst) || !TripFor(Last, TripLast))
    return false;
  if (TripFirst != TripLast)
    return false;
  Trip = TripFirst;
  return true;
}

void Interpreter::execFor(ForStmt *F, const std::vector<uint8_t> &Mask) {
  std::vector<uint8_t> &LoopMask = acquireMask();
  execForRounds(F, Mask, LoopMask);
  releaseMasks(1);
}

void Interpreter::execForRounds(ForStmt *F, const std::vector<uint8_t> &Mask,
                                std::vector<uint8_t> &LoopMask) {
  const bool Collect = Opt && Opt->CollectStats;
  const int Slot = F->IterSlot;

  long long Trip = 0;
  bool Sample = Collect && Opt->LoopSampleThreshold > 0 &&
                uniformLoopTrip(F, Mask, Trip) &&
                Trip > Opt->LoopSampleThreshold;

  // Initialize the iterator.
  for (long long T = 0; T < GroupThreads; ++T) {
    if (!Mask[static_cast<size_t>(T)])
      continue;
    Value V;
    V.I = evalInt(F->init(), T);
    slot(Slot, T) = V;
  }

  SimStats Before;
  long long SampleIters = Opt ? Opt->LoopSampleCount : 4;
  if (Sample)
    Before = *Opt->Stats;

  long long Iter = 0;
  while (!Failed) {
    bool Any = false;
    for (long long T = 0; T < GroupThreads; ++T) {
      LoopMask[static_cast<size_t>(T)] = 0;
      if (!Mask[static_cast<size_t>(T)])
        continue;
      long long I = slot(Slot, T).I;
      long long Bound = evalInt(F->bound(), T);
      bool In = false;
      switch (F->cmp()) {
      case CmpKind::LT:
        In = I < Bound;
        break;
      case CmpKind::LE:
        In = I <= Bound;
        break;
      case CmpKind::GT:
        In = I > Bound;
        break;
      case CmpKind::GE:
        In = I >= Bound;
        break;
      }
      if (In) {
        LoopMask[static_cast<size_t>(T)] = 1;
        Any = true;
      }
      if (Collect)
        Opt->Stats->DynOps += 2; // compare + step per round
    }
    if (!Any)
      break;
    if (Sample && Iter >= SampleIters) {
      // Extrapolate the sampled iterations to the full trip count, then
      // fast-forward the iterator to its exit value (statistics mode only;
      // stored data values are not meaningful for skipped iterations).
      SimStats Delta = Opt->Stats->delta(Before);
      Delta.scale(static_cast<double>(Trip - SampleIters) /
                  static_cast<double>(SampleIters));
      Opt->Stats->add(Delta);
      for (long long T = 0; T < GroupThreads; ++T) {
        if (!Mask[static_cast<size_t>(T)])
          continue;
        long long Init = evalInt(F->init(), T);
        long long Step = evalInt(F->step(), T);
        slot(Slot, T).I = static_cast<int>(Init + Trip * Step);
      }
      return;
    }
    execStmt(F->body(), LoopMask);
    if (Failed)
      return;
    for (long long T = 0; T < GroupThreads; ++T) {
      if (!LoopMask[static_cast<size_t>(T)])
        continue;
      long long Step = evalInt(F->step(), T);
      if (F->stepKind() == StepKind::Add) {
        slot(Slot, T).I += static_cast<int>(Step);
      } else {
        if (Step == 0) {
          reportOnce("loop step division by zero");
          return;
        }
        slot(Slot, T).I /= static_cast<int>(Step);
      }
    }
    ++Iter;
    if (Iter > (1LL << 26)) {
      reportOnce("loop iteration limit exceeded (runaway loop?)");
      return;
    }
  }
}

void Interpreter::execWhile(WhileStmt *W, const std::vector<uint8_t> &Mask) {
  std::vector<uint8_t> &LoopMask = acquireMask();
  execWhileRounds(W, Mask, LoopMask);
  releaseMasks(1);
}

void Interpreter::execWhileRounds(WhileStmt *W,
                                  const std::vector<uint8_t> &Mask,
                                  std::vector<uint8_t> &LoopMask) {
  const bool Collect = Opt && Opt->CollectStats;
  long long Iter = 0;
  while (!Failed) {
    bool Any = false;
    for (long long T = 0; T < GroupThreads; ++T) {
      LoopMask[static_cast<size_t>(T)] = 0;
      if (!Mask[static_cast<size_t>(T)])
        continue;
      Value C = evalExpr(W->cond(), T);
      bool In = W->cond()->type().isBool() || W->cond()->type().isInt()
                    ? C.I != 0
                    : C.F0 != 0.0f;
      if (In) {
        LoopMask[static_cast<size_t>(T)] = 1;
        Any = true;
      }
      if (Collect)
        Opt->Stats->DynOps += 1; // condition re-evaluation per round
    }
    if (!Any)
      break;
    execStmt(W->body(), LoopMask);
    if (Failed)
      return;
    ++Iter;
    if (Iter > (1LL << 26)) {
      reportOnce("loop iteration limit exceeded (runaway loop?)");
      return;
    }
  }
}
