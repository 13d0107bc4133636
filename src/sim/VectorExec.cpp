//===-- sim/VectorExec.cpp - Lane-vectorized bytecode executor ------------===//
//
// The statement drivers here mirror Interpreter::execStmt and friends line
// for line — same mask construction, same statistics accrual points, same
// fault messages, same memory-model statement windows — with the per-thread
// expression recursion replaced by flat plane loops. Every behavioral
// quirk of the scalar engine is intentional compatibility, not preference:
// the equivalence tests compare outputs, SimStats and the race log
// bit-for-bit / record-for-record.
//
//===----------------------------------------------------------------------===//

#include "sim/VectorExec.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace gpuc;

VectorExec::VectorExec(Interpreter &Interp, const BcProgram &Prog)
    : In(Interp), P(Prog), Opt(*Interp.Opt), N(Interp.GroupThreads) {
  Collect = Opt.CollectStats;
  St = Opt.Stats;
  MM = Opt.MM;
  Races = Opt.Races != nullptr;

  const size_t Nz = static_cast<size_t>(N);
  FT.assign(static_cast<size_t>(P.NumFTemps) * Nz, 0.0f);
  IT.assign(static_cast<size_t>(P.NumITemps) * Nz, 0);
  LT.assign(static_cast<size_t>(P.NumLTemps) * Nz, 0);
  // Fresh zeroed planes per group run, like Frame.assign(..., Value()).
  SlotF.assign(static_cast<size_t>(In.NumSlots) * P.KW * Nz, 0.0f);
  SlotI.assign(static_cast<size_t>(In.NumSlots) * Nz, 0);
  ZeroF.assign(Nz, 0.0f);
  ZeroI.assign(Nz, 0);
  FCP.resize(P.FConsts.size() * Nz);
  for (size_t C = 0; C < P.FConsts.size(); ++C)
    std::fill_n(&FCP[C * Nz], Nz, P.FConsts[C]);
  ICP.resize(P.IConsts.size() * Nz);
  for (size_t C = 0; C < P.IConsts.size(); ++C)
    std::fill_n(&ICP[C * Nz], Nz, P.IConsts[C]);
  BP.assign(10 * Nz, 0);
  RegionP.assign(Nz, 0);
  if (In.BlocksInGroup > 1) {
    const long long TPB = In.K.launch().threadsPerBlock();
    const long long RegionWords = In.SharedBytesPerBlock / 4;
    for (long long T = 0; T < N; ++T)
      RegionP[static_cast<size_t>(T)] = (T / TPB) * RegionWords;
  }
}

void VectorExec::bindBlockPlanes() {
  const LaunchConfig &L = In.K.launch();
  const size_t Nz = static_cast<size_t>(N);
  for (long long T = 0; T < N; ++T) {
    const size_t Tz = static_cast<size_t>(T);
    BP[0 * Nz + Tz] = static_cast<int>(In.IdX[Tz]);
    BP[1 * Nz + Tz] = static_cast<int>(In.IdY[Tz]);
    BP[2 * Nz + Tz] = In.TidX[Tz];
    BP[3 * Nz + Tz] = In.TidY[Tz];
    BP[4 * Nz + Tz] = static_cast<int>(In.BidX[Tz]);
    BP[5 * Nz + Tz] = static_cast<int>(In.BidY[Tz]);
  }
  std::fill_n(&BP[6 * Nz], Nz, L.BlockDimX);
  std::fill_n(&BP[7 * Nz], Nz, L.BlockDimY);
  std::fill_n(&BP[8 * Nz], Nz, static_cast<int>(L.GridDimX));
  std::fill_n(&BP[9 * Nz], Nz, static_cast<int>(L.GridDimY));
}

//===----------------------------------------------------------------------===//
// Plane resolution
//===----------------------------------------------------------------------===//

const float *VectorExec::fsrc(int32_t Ref) const {
  const size_t Nz = static_cast<size_t>(N);
  switch (bcKind(Ref)) {
  case BcPlane::FZero:
    return ZeroF.data();
  case BcPlane::FTemp:
    return &FT[static_cast<size_t>(bcIdx(Ref)) * Nz];
  case BcPlane::FSlot:
    return &SlotF[static_cast<size_t>(bcIdx(Ref)) * Nz];
  case BcPlane::FConst:
    return &FCP[static_cast<size_t>(bcIdx(Ref)) * Nz];
  default:
    assert(false && "not a float plane ref");
    return ZeroF.data();
  }
}

float *VectorExec::fdst(int32_t Ref) {
  assert(bcKind(Ref) == BcPlane::FTemp && "float dests are temps");
  return &FT[static_cast<size_t>(bcIdx(Ref)) * static_cast<size_t>(N)];
}

const int *VectorExec::isrc(int32_t Ref) const {
  const size_t Nz = static_cast<size_t>(N);
  switch (bcKind(Ref)) {
  case BcPlane::IZero:
    return ZeroI.data();
  case BcPlane::ITemp:
    return &IT[static_cast<size_t>(bcIdx(Ref)) * Nz];
  case BcPlane::ISlot:
    return &SlotI[static_cast<size_t>(bcIdx(Ref)) * Nz];
  case BcPlane::IConst:
    return &ICP[static_cast<size_t>(bcIdx(Ref)) * Nz];
  case BcPlane::IBuiltin:
    return &BP[static_cast<size_t>(bcIdx(Ref)) * Nz];
  default:
    assert(false && "not an int plane ref");
    return ZeroI.data();
  }
}

int *VectorExec::idst(int32_t Ref) {
  assert(bcKind(Ref) == BcPlane::ITemp && "int dests are temps");
  return &IT[static_cast<size_t>(bcIdx(Ref)) * static_cast<size_t>(N)];
}

long long *VectorExec::ltmp(int32_t Ref) {
  assert(bcKind(Ref) == BcPlane::LTemp && "not a long plane ref");
  return &LT[static_cast<size_t>(bcIdx(Ref)) * static_cast<size_t>(N)];
}

uint8_t *VectorExec::acquireMask() {
  if (MaskTop == MaskPool.size())
    MaskPool.emplace_back();
  std::vector<uint8_t> &B = MaskPool[MaskTop++];
  B.assign(static_cast<size_t>(N), 0);
  return B.data();
}

//===----------------------------------------------------------------------===//
// Op interpreter
//===----------------------------------------------------------------------===//

namespace {
// Wrap-defined analogues of the scalar engine's int arithmetic (the scalar
// path only ever executes these on non-overflowing values; garbage in
// masked-off lanes must not trap under UBSan).
inline int wAdd(int A, int B) {
  return static_cast<int>(static_cast<unsigned>(A) +
                          static_cast<unsigned>(B));
}
inline int wSub(int A, int B) {
  return static_cast<int>(static_cast<unsigned>(A) -
                          static_cast<unsigned>(B));
}
inline int wMul(int A, int B) {
  return static_cast<int>(static_cast<unsigned>(A) *
                          static_cast<unsigned>(B));
}
inline long long wMulLL(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) *
                                static_cast<unsigned long long>(B));
}
inline long long wAddLL(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) +
                                static_cast<unsigned long long>(B));
}
} // namespace

void VectorExec::step(const BcInstr &I, const uint8_t *M) {
  const long long n = N;
  switch (I.Op) {
  case BcOp::CopyF: {
    const float *A = fsrc(I.A);
    float *D = fdst(I.D);
    std::copy(A, A + n, D);
    return;
  }
  case BcOp::NegF: {
    const float *A = fsrc(I.A);
    float *D = fdst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = -A[t];
    return;
  }
  case BcOp::AddF: {
    const float *A = fsrc(I.A), *B = fsrc(I.B);
    float *D = fdst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = A[t] + B[t];
    return;
  }
  case BcOp::SubF: {
    const float *A = fsrc(I.A), *B = fsrc(I.B);
    float *D = fdst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = A[t] - B[t];
    return;
  }
  case BcOp::MulF: {
    const float *A = fsrc(I.A), *B = fsrc(I.B);
    float *D = fdst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = A[t] * B[t];
    return;
  }
  case BcOp::DivF: {
    const float *A = fsrc(I.A), *B = fsrc(I.B);
    float *D = fdst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = A[t] / B[t];
    return;
  }
  case BcOp::CvtIF: {
    const int *A = isrc(I.A);
    float *D = fdst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = static_cast<float>(A[t]);
    return;
  }
  case BcOp::Call1:
  case BcOp::Call2: {
    const float *A = fsrc(I.A), *B = fsrc(I.B);
    float *D = fdst(I.D);
    switch (static_cast<BcCallee>(I.Aux)) {
    case BcCallee::Sqrt:
      for (long long t = 0; t < n; ++t)
        D[t] = std::sqrt(A[t]);
      return;
    case BcCallee::Fabs:
      for (long long t = 0; t < n; ++t)
        D[t] = std::fabs(A[t]);
      return;
    case BcCallee::Fmin:
      // The scalar engine uses std::min/std::max, not fminf/fmaxf; the
      // NaN behavior differs, so match it.
      for (long long t = 0; t < n; ++t)
        D[t] = std::min(A[t], B[t]);
      return;
    case BcCallee::Fmax:
      for (long long t = 0; t < n; ++t)
        D[t] = std::max(A[t], B[t]);
      return;
    case BcCallee::Exp:
      for (long long t = 0; t < n; ++t)
        D[t] = std::exp(A[t]);
      return;
    case BcCallee::Log:
      for (long long t = 0; t < n; ++t)
        D[t] = std::log(A[t]);
      return;
    case BcCallee::Sin:
      for (long long t = 0; t < n; ++t)
        D[t] = std::sin(A[t]);
      return;
    case BcCallee::Cos:
      for (long long t = 0; t < n; ++t)
        D[t] = std::cos(A[t]);
      return;
    }
    return;
  }
  case BcOp::CmpFF: {
    const float *A = fsrc(I.A), *B = fsrc(I.B);
    int *D = idst(I.D);
    switch (static_cast<BcCmp>(I.Aux)) {
    case BcCmp::LT:
      for (long long t = 0; t < n; ++t)
        D[t] = static_cast<double>(A[t]) < static_cast<double>(B[t]);
      return;
    case BcCmp::GT:
      for (long long t = 0; t < n; ++t)
        D[t] = static_cast<double>(A[t]) > static_cast<double>(B[t]);
      return;
    case BcCmp::LE:
      for (long long t = 0; t < n; ++t)
        D[t] = static_cast<double>(A[t]) <= static_cast<double>(B[t]);
      return;
    case BcCmp::GE:
      for (long long t = 0; t < n; ++t)
        D[t] = static_cast<double>(A[t]) >= static_cast<double>(B[t]);
      return;
    case BcCmp::EQ:
      for (long long t = 0; t < n; ++t)
        D[t] = static_cast<double>(A[t]) == static_cast<double>(B[t]);
      return;
    case BcCmp::NE:
      for (long long t = 0; t < n; ++t)
        D[t] = static_cast<double>(A[t]) != static_cast<double>(B[t]);
      return;
    }
    return;
  }
  case BcOp::CopyI: {
    const int *A = isrc(I.A);
    int *D = idst(I.D);
    std::copy(A, A + n, D);
    return;
  }
  case BcOp::NotI: {
    const int *A = isrc(I.A);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = !A[t];
    return;
  }
  case BcOp::NegI: {
    const int *A = isrc(I.A);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = wSub(0, A[t]);
    return;
  }
  case BcOp::AddI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = wAdd(A[t], B[t]);
    return;
  }
  case BcOp::SubI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = wSub(A[t], B[t]);
    return;
  }
  case BcOp::MulI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = wMul(A[t], B[t]);
    return;
  }
  case BcOp::AndI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = A[t] && B[t];
    return;
  }
  case BcOp::OrI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      D[t] = A[t] || B[t];
    return;
  }
  case BcOp::CmpII: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    switch (static_cast<BcCmp>(I.Aux)) {
    case BcCmp::LT:
      for (long long t = 0; t < n; ++t)
        D[t] = A[t] < B[t];
      return;
    case BcCmp::GT:
      for (long long t = 0; t < n; ++t)
        D[t] = A[t] > B[t];
      return;
    case BcCmp::LE:
      for (long long t = 0; t < n; ++t)
        D[t] = A[t] <= B[t];
      return;
    case BcCmp::GE:
      for (long long t = 0; t < n; ++t)
        D[t] = A[t] >= B[t];
      return;
    case BcCmp::EQ:
      for (long long t = 0; t < n; ++t)
        D[t] = A[t] == B[t];
      return;
    case BcCmp::NE:
      for (long long t = 0; t < n; ++t)
        D[t] = A[t] != B[t];
      return;
    }
    return;
  }
  case BcOp::CvtFI: {
    // Masked: float->int conversion of an inactive lane's garbage would be
    // undefined; active lanes hold exactly the values the scalar engine
    // converts.
    const float *A = fsrc(I.A);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t)
      if (M[t])
        D[t] = static_cast<int>(A[t]);
    return;
  }
  case BcOp::DivI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t) {
      if (!M[t])
        continue;
      if (B[t] == 0) {
        In.reportOnce("integer division by zero");
        D[t] = 0;
      } else {
        D[t] = static_cast<int>(static_cast<long long>(A[t]) /
                                static_cast<long long>(B[t]));
      }
    }
    return;
  }
  case BcOp::RemI: {
    const int *A = isrc(I.A), *B = isrc(I.B);
    int *D = idst(I.D);
    for (long long t = 0; t < n; ++t) {
      if (!M[t])
        continue;
      if (B[t] == 0) {
        In.reportOnce("integer remainder by zero");
        D[t] = 0;
      } else {
        D[t] = static_cast<int>(static_cast<long long>(A[t]) %
                                static_cast<long long>(B[t]));
      }
    }
    return;
  }
  case BcOp::SetL: {
    const int *A = isrc(I.A);
    long long *D = ltmp(I.D);
    const long long Imm = I.Imm;
    for (long long t = 0; t < n; ++t)
      D[t] = wMulLL(static_cast<long long>(A[t]), Imm);
    return;
  }
  case BcOp::MadL: {
    const int *A = isrc(I.A);
    long long *D = ltmp(I.D);
    const long long Imm = I.Imm;
    for (long long t = 0; t < n; ++t)
      D[t] = wAddLL(D[t], wMulLL(static_cast<long long>(A[t]), Imm));
    return;
  }
  case BcOp::Load:
    execLoad(P.Accesses[static_cast<size_t>(I.Aux32)], M);
    return;
  case BcOp::Store:
    execStore(P.Accesses[static_cast<size_t>(I.Aux32)], M);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Array accesses (mirrors Interpreter::loadArray / storeArray)
//===----------------------------------------------------------------------===//

void VectorExec::execLoad(const BcAccess &AC, const uint8_t *M) {
  const long long *Flat = ltmp(AC.Flat);
  const int AL = AC.AccessLanes;
  float *Dst[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int L = 0; L < AL; ++L)
    Dst[L] = fdst(AC.Lane[L]);

  if (AC.Shared) {
    const Interpreter::SharedArray &SA =
        In.Shareds[static_cast<size_t>(AC.ArrayIdx)];
    const long long Base = SA.ByteOffset / 4;
    const long long Limit = Base + SA.ElemCount * SA.ElemLanes;
    // Shared accesses fold per half-warp on the fly (the loop emits them
    // in ascending thread order) instead of staging a per-statement
    // buffer: shared traffic dominates the access count in staged
    // kernels, and all its stats are order-free integral sums. Folding
    // only happens inside an MMWrap window (MMOpen) — outside one the
    // scalar engine discards the accesses unfolded.
    const bool FoldMM = Collect && MM && MMOpen;
    MemoryModel::Access Group[32];
    int GroupCount = 0;
    long long GroupEnd = 0; // first thread past the group's half-warp
    const int HalfWarp = FoldMM ? MM->halfWarp() : 16;
    if (BufferRaces)
      RunBegin.push_back(Pending.size());
    for (long long T = 0; T < N; ++T) {
      if (!M[T])
        continue;
      const long long FloatOff =
          Base + wMulLL(Flat[T], AC.Factor); // scalar values never wrap
      if (FloatOff < Base || FloatOff + AL > Limit) {
        In.reportOnce(strFormat("shared array '%s' access out of bounds",
                                AC.Site->base().c_str()));
        for (int L = 0; L < AL; ++L)
          Dst[L][T] = 0.0f; // the scalar path yields a zero Value
        continue;
      }
      if (FoldMM) {
        // T ascends, so T leaves the group's half-warp exactly when it
        // reaches GroupEnd.
        if (T >= GroupEnd) {
          if (GroupCount) {
            MM->foldSharedGroup(AL * 4, Group, GroupCount, *St);
            GroupCount = 0;
          }
          while (GroupEnd <= T)
            GroupEnd += HalfWarp;
        }
        Group[GroupCount++] = {T, SA.ByteOffset + (FloatOff - Base) * 4};
      }
      const long long Abs = RegionP[static_cast<size_t>(T)] + FloatOff;
      if (BufferRaces) {
        PendingAcc PA;
        PA.T = T;
        PA.Site = AC.Site;
        PA.Abs = Abs;
        PA.Rel = FloatOff - Base;
        PA.Lanes = AL;
        PA.IsWrite = false;
        Pending.push_back(PA);
      } else if (Races) {
        In.raceCheckAccess(AC.Site, T, Abs, FloatOff - Base, AL,
                           /*IsWrite=*/false);
      }
      const float *Src = &In.SharedData[static_cast<size_t>(Abs)];
      for (int L = 0; L < AL; ++L)
        Dst[L][T] = Src[L];
    }
    if (GroupCount)
      MM->foldSharedGroup(AL * 4, Group, GroupCount, *St);
    return;
  }

  const Interpreter::GlobalArray &G =
      In.Globals[static_cast<size_t>(AC.ArrayIdx)];
  const long long TotalFloats = G.ElemCount * G.ElemLanes;
  const float *Data = G.Data;
  std::vector<MemoryModel::Access> *Sink = nullptr;
  for (long long T = 0; T < N; ++T) {
    if (!M[T])
      continue;
    const long long FloatOff = wMulLL(Flat[T], AC.Factor);
    if (FloatOff < 0 || FloatOff + AL > TotalFloats) {
      In.reportOnce(strFormat("global array '%s' access out of bounds (%lld)",
                              AC.Site->base().c_str(), FloatOff));
      for (int L = 0; L < AL; ++L)
        Dst[L][T] = 0.0f;
      continue;
    }
    if (Collect && MM && MMOpen) {
      if (!Sink)
        Sink = &MM->globalSink(AC.Site, AL * 4, /*IsStore=*/false);
      Sink->push_back({T, G.BaseAddr + FloatOff * 4});
    }
    const float *Src = &Data[static_cast<size_t>(FloatOff)];
    for (int L = 0; L < AL; ++L)
      Dst[L][T] = Src[L];
  }
}

void VectorExec::execStore(const BcAccess &AC, const uint8_t *M) {
  const long long *Flat = ltmp(AC.Flat);
  const int AL = AC.AccessLanes;
  const float *Src[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int L = 0; L < AL; ++L)
    Src[L] = fsrc(AC.Lane[L]);

  if (AC.Shared) {
    const Interpreter::SharedArray &SA =
        In.Shareds[static_cast<size_t>(AC.ArrayIdx)];
    const long long Base = SA.ByteOffset / 4;
    const long long Limit = Base + SA.ElemCount * SA.ElemLanes;
    const bool FoldMM = Collect && MM && MMOpen;
    MemoryModel::Access Group[32];
    int GroupCount = 0;
    long long GroupEnd = 0; // first thread past the group's half-warp
    const int HalfWarp = FoldMM ? MM->halfWarp() : 16;
    if (BufferRaces)
      RunBegin.push_back(Pending.size());
    for (long long T = 0; T < N; ++T) {
      if (!M[T])
        continue;
      const long long FloatOff = Base + wMulLL(Flat[T], AC.Factor);
      if (FloatOff < Base || FloatOff + AL > Limit) {
        In.reportOnce(strFormat("shared array '%s' store out of bounds",
                                AC.Site->base().c_str()));
        continue;
      }
      if (FoldMM) {
        if (T >= GroupEnd) {
          if (GroupCount) {
            MM->foldSharedGroup(AL * 4, Group, GroupCount, *St);
            GroupCount = 0;
          }
          while (GroupEnd <= T)
            GroupEnd += HalfWarp;
        }
        Group[GroupCount++] = {T, SA.ByteOffset + (FloatOff - Base) * 4};
      }
      const long long Abs = RegionP[static_cast<size_t>(T)] + FloatOff;
      float *Dst = &In.SharedData[static_cast<size_t>(Abs)];
      if (BufferRaces) {
        PendingAcc PA;
        PA.T = T;
        PA.Site = AC.Site;
        PA.Abs = Abs;
        PA.Rel = FloatOff - Base;
        PA.Lanes = AL;
        PA.IsWrite = true;
        for (int L = 0; L < 4; ++L) {
          PA.New[L] = L < AL ? Src[L][T] : 0.0f;
          PA.Old[L] = L < AL ? Dst[L] : 0.0f;
        }
        Pending.push_back(PA);
      } else if (Races) {
        // Checked before the store commits, so the same-value exemption
        // reads the pre-store word from SharedData, as the scalar engine.
        float New[4];
        for (int L = 0; L < AL; ++L)
          New[L] = Src[L][T];
        In.raceCheckAccess(AC.Site, T, Abs, FloatOff - Base, AL,
                           /*IsWrite=*/true, New);
      }
      for (int L = 0; L < AL; ++L)
        Dst[L] = Src[L][T];
    }
    if (GroupCount)
      MM->foldSharedGroup(AL * 4, Group, GroupCount, *St);
    return;
  }

  const Interpreter::GlobalArray &G =
      In.Globals[static_cast<size_t>(AC.ArrayIdx)];
  const long long TotalFloats = G.ElemCount * G.ElemLanes;
  float *Data = G.Data;
  std::vector<MemoryModel::Access> *Sink = nullptr;
  for (long long T = 0; T < N; ++T) {
    if (!M[T])
      continue;
    const long long FloatOff = wMulLL(Flat[T], AC.Factor);
    if (FloatOff < 0 || FloatOff + AL > TotalFloats) {
      In.reportOnce(strFormat("global array '%s' store out of bounds (%lld)",
                              AC.Site->base().c_str(), FloatOff));
      continue;
    }
    if (Collect && MM && MMOpen) {
      if (!Sink)
        Sink = &MM->globalSink(AC.Site, AL * 4, /*IsStore=*/true);
      Sink->push_back({T, G.BaseAddr + FloatOff * 4});
    }
    float *Dst = &Data[static_cast<size_t>(FloatOff)];
    for (int L = 0; L < AL; ++L)
      Dst[L] = Src[L][T];
  }
}

void VectorExec::flushReads() {
  // Each run holds at most one access per thread, so every round replays
  // the heads that carry the smallest thread id, in run order: the order a
  // stable sort by thread id gives.
  const size_t Runs = RunBegin.size();
  RunHead = RunBegin;
  RunBegin.push_back(Pending.size()); // RunBegin[R + 1] ends run R
  for (long long T = 0; T < N;) {
    long long Next = N;
    for (size_t R = 0; R < Runs; ++R) {
      size_t &H = RunHead[R];
      if (H < RunBegin[R + 1] && Pending[H].T == T) {
        const PendingAcc &A = Pending[H++];
        In.raceCheckAccess(A.Site, A.T, A.Abs, A.Rel, A.Lanes, A.IsWrite,
                           A.IsWrite ? A.New : nullptr,
                           A.IsWrite ? A.Old : nullptr);
      }
      if (H < RunBegin[R + 1])
        Next = std::min(Next, Pending[H].T);
    }
    T = Next;
  }
  Pending.clear();
  RunBegin.clear();
}

void VectorExec::runRange(const BcRange &R, const uint8_t *M, long long Cnt) {
  BufferRaces = Races && R.SharedOps > 1;
  for (int32_t I = R.Begin; I < R.End; ++I)
    step(P.Code[static_cast<size_t>(I)], M);
  if (Collect) {
    // Per-active-thread static weights: integral values summed in double,
    // so the total is exact and order-independent — bit-identical to the
    // scalar engine's per-thread accumulation.
    St->DynOps += R.DynOps * static_cast<double>(Cnt);
    St->Flops += R.Flops * static_cast<double>(Cnt);
  }
  if (BufferRaces)
    flushReads();
}

//===----------------------------------------------------------------------===//
// Statement drivers (mirror Interpreter::execStmt / execAssign / execFor /
// execWhile / uniformLoopTrip)
//===----------------------------------------------------------------------===//

void VectorExec::run() { exec(P.Root, In.FullMask.data(), N); }

void VectorExec::commitValue(int Slot, const BcValue &V, const uint8_t *M) {
  const size_t Nz = static_cast<size_t>(N);
  for (int L = 0; L < P.KW; ++L) {
    const float *Src = fsrc(V.F[L]);
    float *Dst = &SlotF[(static_cast<size_t>(Slot) * P.KW + L) * Nz];
    for (long long T = 0; T < N; ++T)
      if (M[T])
        Dst[T] = Src[T];
  }
  const int *SrcI = isrc(V.I);
  int *DstI = &SlotI[static_cast<size_t>(Slot) * Nz];
  for (long long T = 0; T < N; ++T)
    if (M[T])
      DstI[T] = SrcI[T];
}

void VectorExec::commitMember(int Slot, int Field, const BcValue &V,
                              const uint8_t *M) {
  const float *Src = fsrc(V.F[0]);
  float *Dst = &SlotF[(static_cast<size_t>(Slot) * P.KW + Field) *
                      static_cast<size_t>(N)];
  for (long long T = 0; T < N; ++T)
    if (M[T])
      Dst[T] = Src[T];
}

void VectorExec::exec(int32_t SI, const uint8_t *M, long long Cnt) {
  if (SI < 0 || In.Failed)
    return;
  const BcStmt &S = P.Stmts[static_cast<size_t>(SI)];
  switch (S.K) {
  case BcStmt::Kind::Compound:
    for (int32_t Child : S.Children) {
      exec(Child, M, Cnt);
      if (In.Failed)
        return;
    }
    return;
  case BcStmt::Kind::Decl: {
    if (S.CommitSlot < 0)
      return; // shared or uninitialized declaration
    mmBegin(S);
    runRange(S.Eval, M, Cnt);
    commitValue(S.CommitSlot, S.CommitVal, M);
    mmEnd(S);
    return;
  }
  case BcStmt::Kind::Assign:
    execAssign(S, M, Cnt);
    return;
  case BcStmt::Kind::If: {
    mmBegin(S);
    runRange(S.Eval, M, Cnt);
    mmEnd(S);
    uint8_t *ThenMask = acquireMask();
    uint8_t *ElseMask = acquireMask();
    long long ThenCnt = 0, ElseCnt = 0;
    if (S.CondIsInt) {
      const int *C = isrc(S.CondRef);
      for (long long T = 0; T < N; ++T) {
        if (!M[T])
          continue;
        if (C[T] != 0) {
          ThenMask[T] = 1;
          ++ThenCnt;
        } else {
          ElseMask[T] = 1;
          ++ElseCnt;
        }
      }
    } else {
      const float *C = fsrc(S.CondRef);
      for (long long T = 0; T < N; ++T) {
        if (!M[T])
          continue;
        if (C[T] != 0.0f) {
          ThenMask[T] = 1;
          ++ThenCnt;
        } else {
          ElseMask[T] = 1;
          ++ElseCnt;
        }
      }
    }
    if (ThenCnt > 0)
      exec(S.ThenChild, ThenMask, ThenCnt);
    if (ElseCnt > 0 && S.ElseChild >= 0)
      exec(S.ElseChild, ElseMask, ElseCnt);
    releaseMasks(2);
    return;
  }
  case BcStmt::Kind::For:
    execFor(S, M, Cnt);
    return;
  case BcStmt::Kind::While:
    execWhile(S, M, Cnt);
    return;
  case BcStmt::Kind::Sync: {
    // Barriers must be reached by every thread of the group (the mask has
    // no duplicate threads, so full coverage <=> Cnt == N).
    if (Cnt != N) {
      In.reportOnce("barrier inside divergent control flow");
      return;
    }
    if (Collect) {
      if (S.IsGlobal)
        St->GlobalSyncs += 1;
      else
        St->BlockSyncs += 1;
    }
    In.raceCheckBarrier();
    return;
  }
  }
}

void VectorExec::execAssign(const BcStmt &S, const uint8_t *M,
                            long long Cnt) {
  mmBegin(S);
  // Phase 1: evaluate RHS (and compound old value) for every active
  // thread; phase 2: re-evaluate target indices and commit. Same two-phase
  // split as the scalar engine, so SPMD read-after-write hazards within
  // one statement cannot occur.
  runRange(S.Eval, M, Cnt);
  runRange(S.Commit, M, Cnt);
  if (S.CommitSlot >= 0) {
    if (S.CommitField >= 0)
      commitMember(S.CommitSlot, S.CommitField, S.CommitVal, M);
    else
      commitValue(S.CommitSlot, S.CommitVal, M);
  }
  mmEnd(S);
}

bool VectorExec::tripCount(const BcStmt &S, const uint8_t *M,
                           long long &Trip) {
  if (static_cast<StepKind>(S.SKind) != StepKind::Add)
    return false;
  long long First = -1, Last = -1;
  for (long long T = 0; T < N; ++T) {
    if (M[T]) {
      if (First < 0)
        First = T;
      Last = T;
    }
  }
  if (First < 0)
    return false;
  uint8_t *OneHot = acquireMask();
  const int *InitP = isrc(S.InitRef);
  const int *BoundP = isrc(S.BoundRef);
  const int *StepP = isrc(S.StepRef);
  auto TripFor = [&](long long T, long long &Out) {
    OneHot[T] = 1;
    runRange(S.InitR, OneHot, 1);
    runRange(S.BoundR, OneHot, 1);
    runRange(S.StepR, OneHot, 1);
    OneHot[T] = 0;
    const long long Init = InitP[T];
    const long long Bound = BoundP[T];
    const long long Step = StepP[T];
    if (Step <= 0)
      return false;
    long long Span;
    switch (static_cast<CmpKind>(S.Cmp)) {
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
  long long TripFirst = 0, TripLast = 0;
  // Short-circuit order matters: a failed First probe must skip the Last
  // probe's evaluation (and its statistics), like the scalar engine.
  bool Uniform = TripFor(First, TripFirst) && TripFor(Last, TripLast) &&
                 TripFirst == TripLast;
  releaseMasks(1);
  if (Uniform)
    Trip = TripFirst;
  return Uniform;
}

void VectorExec::execFor(const BcStmt &S, const uint8_t *M, long long Cnt) {
  const size_t Nz = static_cast<size_t>(N);
  const int Slot = S.IterSlot;
  int *IterP = &SlotI[static_cast<size_t>(Slot) * Nz];

  long long Trip = 0;
  bool Sample = Collect && Opt.LoopSampleThreshold > 0 &&
                tripCount(S, M, Trip) && Trip > Opt.LoopSampleThreshold;

  // Initialize the iterator: slot = Value{I = init} — float lanes zeroed.
  runRange(S.InitR, M, Cnt);
  {
    const int *Init = isrc(S.InitRef);
    for (int L = 0; L < P.KW; ++L) {
      float *FP = &SlotF[(static_cast<size_t>(Slot) * P.KW + L) * Nz];
      for (long long T = 0; T < N; ++T)
        if (M[T])
          FP[T] = 0.0f;
    }
    for (long long T = 0; T < N; ++T)
      if (M[T])
        IterP[T] = Init[T];
  }

  SimStats Before;
  const long long SampleIters = Opt.LoopSampleCount;
  if (Sample)
    Before = *St;

  uint8_t *LoopMask = acquireMask();
  long long Iter = 0;
  while (!In.Failed) {
    runRange(S.BoundR, M, Cnt);
    const int *Bound = isrc(S.BoundRef);
    long long LoopCnt = 0;
    std::fill_n(LoopMask, Nz, static_cast<uint8_t>(0));
    for (long long T = 0; T < N; ++T) {
      if (!M[T])
        continue;
      const long long I = IterP[T];
      const long long B = Bound[T];
      bool InLoop = false;
      switch (static_cast<CmpKind>(S.Cmp)) {
      case CmpKind::LT:
        InLoop = I < B;
        break;
      case CmpKind::LE:
        InLoop = I <= B;
        break;
      case CmpKind::GT:
        InLoop = I > B;
        break;
      case CmpKind::GE:
        InLoop = I >= B;
        break;
      }
      if (InLoop) {
        LoopMask[T] = 1;
        ++LoopCnt;
      }
    }
    if (Collect)
      St->DynOps += 2.0 * static_cast<double>(Cnt); // compare + step/round
    if (LoopCnt == 0)
      break;
    if (Sample && Iter >= SampleIters) {
      // Extrapolate the sampled iterations, then fast-forward the iterator
      // to its exit value (statistics mode only).
      SimStats Delta = St->delta(Before);
      Delta.scale(static_cast<double>(Trip - SampleIters) /
                  static_cast<double>(SampleIters));
      St->add(Delta);
      runRange(S.InitR, M, Cnt);
      runRange(S.StepR, M, Cnt);
      const int *Init = isrc(S.InitRef);
      const int *Step = isrc(S.StepRef);
      for (long long T = 0; T < N; ++T)
        if (M[T])
          IterP[T] = static_cast<int>(static_cast<long long>(Init[T]) +
                                      Trip * static_cast<long long>(Step[T]));
      releaseMasks(1);
      return;
    }
    exec(S.BodyChild, LoopMask, LoopCnt);
    if (In.Failed) {
      releaseMasks(1);
      return;
    }
    runRange(S.StepR, LoopMask, LoopCnt);
    {
      const int *Step = isrc(S.StepRef);
      if (static_cast<StepKind>(S.SKind) == StepKind::Add) {
        for (long long T = 0; T < N; ++T)
          if (LoopMask[T])
            IterP[T] = wAdd(IterP[T], Step[T]);
      } else {
        for (long long T = 0; T < N; ++T) {
          if (!LoopMask[T])
            continue;
          if (Step[T] == 0) {
            // The scalar engine aborts mid-commit on the first zero step;
            // earlier threads keep their updated iterators.
            In.reportOnce("loop step division by zero");
            releaseMasks(1);
            return;
          }
          IterP[T] = static_cast<int>(static_cast<long long>(IterP[T]) /
                                      static_cast<long long>(Step[T]));
        }
      }
    }
    ++Iter;
    if (Iter > (1LL << 26)) {
      In.reportOnce("loop iteration limit exceeded (runaway loop?)");
      releaseMasks(1);
      return;
    }
  }
  releaseMasks(1);
}

void VectorExec::execWhile(const BcStmt &S, const uint8_t *M, long long Cnt) {
  uint8_t *LoopMask = acquireMask();
  long long Iter = 0;
  while (!In.Failed) {
    runRange(S.Eval, M, Cnt); // includes the +1/round condition weight
    long long LoopCnt = 0;
    std::fill_n(LoopMask, static_cast<size_t>(N), static_cast<uint8_t>(0));
    if (S.CondIsInt) {
      const int *C = isrc(S.CondRef);
      for (long long T = 0; T < N; ++T) {
        if (M[T] && C[T] != 0) {
          LoopMask[T] = 1;
          ++LoopCnt;
        }
      }
    } else {
      const float *C = fsrc(S.CondRef);
      for (long long T = 0; T < N; ++T) {
        if (M[T] && C[T] != 0.0f) {
          LoopMask[T] = 1;
          ++LoopCnt;
        }
      }
    }
    if (LoopCnt == 0)
      break;
    exec(S.BodyChild, LoopMask, LoopCnt);
    if (In.Failed)
      break;
    ++Iter;
    if (Iter > (1LL << 26)) {
      In.reportOnce("loop iteration limit exceeded (runaway loop?)");
      break;
    }
  }
  releaseMasks(1);
}
