//===-- tests/SimTest.cpp - simulator substrate tests ---------------------===//

#include "ast/Builder.h"
#include "ast/Walk.h"
#include "baselines/CublasLike.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "sim/MemoryModel.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace gpuc;

//===----------------------------------------------------------------------===//
// Memory model
//===----------------------------------------------------------------------===//

namespace {

SimStats foldOne(const DeviceSpec &Dev,
                 const std::vector<std::pair<long long, long long>> &TidAddr,
                 int ElemBytes, bool IsStore = false) {
  MemoryModel MM(Dev);
  MM.beginStatement();
  int Site = 0;
  for (auto [Tid, Addr] : TidAddr)
    MM.recordGlobal(&Site, Tid, Addr, ElemBytes, IsStore);
  SimStats S;
  MM.endStatement(S);
  return S;
}

} // namespace

TEST(MemoryModel, CoalescedHalfWarpIsOneTransaction) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; ++T)
    Acc.push_back({T, 4096 + 4 * T});
  SimStats S = foldOne(Dev, Acc, 4);
  EXPECT_EQ(S.Transactions, 1);
  EXPECT_EQ(S.BytesMovedFloat, 64);
  EXPECT_EQ(S.CoalescedHalfWarps, 1);
  EXPECT_EQ(S.UncoalescedHalfWarps, 0);
  EXPECT_EQ(S.UsefulBytes, 64);
}

TEST(MemoryModel, MisalignedBaseSerializes) {
  DeviceSpec Dev = DeviceSpec::gtx8800();
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; ++T)
    Acc.push_back({T, 4100 + 4 * T}); // base not 64-aligned
  SimStats S = foldOne(Dev, Acc, 4);
  EXPECT_EQ(S.Transactions, 16);
  EXPECT_EQ(S.BytesMovedFloat, 16 * 32);
  EXPECT_EQ(S.UncoalescedHalfWarps, 1);
}

TEST(MemoryModel, BroadcastIsNotCoalescedOnG80) {
  DeviceSpec Dev = DeviceSpec::gtx8800();
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; ++T)
    Acc.push_back({T, 4096}); // same address, like b[i]
  SimStats S = foldOne(Dev, Acc, 4);
  EXPECT_EQ(S.Transactions, 16);
}

TEST(MemoryModel, Gt200RelaxedCoalescerMergesSegments) {
  // GT200 folds a failed half warp into minimal 32-byte segments: a
  // broadcast costs one transaction, a misaligned walk costs three.
  DeviceSpec Dev = DeviceSpec::gtx280();
  ASSERT_TRUE(Dev.RelaxedCoalescing);
  std::vector<std::pair<long long, long long>> Broadcast;
  for (long long T = 0; T < 16; ++T)
    Broadcast.push_back({T, 4096});
  EXPECT_EQ(foldOne(Dev, Broadcast, 4).Transactions, 1);
  std::vector<std::pair<long long, long long>> Shifted;
  for (long long T = 0; T < 16; ++T)
    Shifted.push_back({T, 4100 + 4 * T}); // spans 3 32B segments
  EXPECT_EQ(foldOne(Dev, Shifted, 4).Transactions, 3);
}

TEST(MemoryModel, Float2HalfWarpIsOne128ByteTransaction) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; ++T)
    Acc.push_back({T, 8192 + 8 * T});
  SimStats S = foldOne(Dev, Acc, 8);
  EXPECT_EQ(S.Transactions, 1);
  EXPECT_EQ(S.BytesMovedFloat2, 128);
}

TEST(MemoryModel, PartiallyActiveHalfWarpStillCoalesces) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; T += 2) // divergent lanes
    Acc.push_back({T, 4096 + 4 * T});
  SimStats S = foldOne(Dev, Acc, 4);
  EXPECT_EQ(S.Transactions, 1);
  EXPECT_EQ(S.UsefulBytes, 8 * 4);
}

TEST(MemoryModel, DistinctSitesNeverMerge) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  MemoryModel MM(Dev);
  MM.beginStatement();
  int SiteA = 0, SiteB = 0;
  for (long long T = 0; T < 16; ++T) {
    MM.recordGlobal(&SiteA, T, 4096 + 4 * T, 4, false);
    MM.recordGlobal(&SiteB, T, 8192 + 4 * T, 4, false);
  }
  SimStats S;
  MM.endStatement(S);
  EXPECT_EQ(S.Transactions, 2);
  EXPECT_EQ(S.GlobalLoadHalfWarps, 2);
}

TEST(MemoryModel, PartitionAttribution) {
  DeviceSpec Dev = DeviceSpec::gtx280(); // 8 partitions x 256B
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; ++T)
    Acc.push_back({T, 0 + 4 * T});
  SimStats S = foldOne(Dev, Acc, 4);
  ASSERT_EQ(S.PartitionBytes.size(), 8u);
  EXPECT_EQ(S.PartitionBytes[0], 64);
  // camping factor of a single-partition histogram is the partition count
  EXPECT_DOUBLE_EQ(MemoryModel::campingFactor(S.PartitionBytes), 8.0);
  std::vector<double> Balanced(8, 10.0);
  EXPECT_DOUBLE_EQ(MemoryModel::campingFactor(Balanced), 1.0);
  EXPECT_DOUBLE_EQ(MemoryModel::campingFactor({}), 1.0);
}

TEST(MemoryModel, SharedBankConflicts) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  MemoryModel MM(Dev);
  int Site = 0;
  // 16-way conflict: every lane hits bank 0 (stride 16 words).
  MM.beginStatement();
  for (long long T = 0; T < 16; ++T)
    MM.recordShared(&Site, T, 64 * T, 4);
  SimStats S1;
  MM.endStatement(S1);
  EXPECT_EQ(S1.SharedBankExtraCycles, 15);
  // Conflict-free: consecutive words.
  MM.beginStatement();
  for (long long T = 0; T < 16; ++T)
    MM.recordShared(&Site, T, 4 * T, 4);
  SimStats S2;
  MM.endStatement(S2);
  EXPECT_EQ(S2.SharedBankExtraCycles, 0);
  // Broadcast: same word for all lanes.
  MM.beginStatement();
  for (long long T = 0; T < 16; ++T)
    MM.recordShared(&Site, T, 68, 4);
  SimStats S3;
  MM.endStatement(S3);
  EXPECT_EQ(S3.SharedBankExtraCycles, 0);
}

//===----------------------------------------------------------------------===//
// The statement window: what beginStatement/endStatement fold
//===----------------------------------------------------------------------===//

namespace {

void expectStatsEq(const SimStats &A, const SimStats &B) {
  EXPECT_EQ(A.GlobalLoadHalfWarps, B.GlobalLoadHalfWarps);
  EXPECT_EQ(A.GlobalStoreHalfWarps, B.GlobalStoreHalfWarps);
  EXPECT_EQ(A.CoalescedHalfWarps, B.CoalescedHalfWarps);
  EXPECT_EQ(A.UncoalescedHalfWarps, B.UncoalescedHalfWarps);
  EXPECT_EQ(A.Transactions, B.Transactions);
  EXPECT_EQ(A.BytesMovedFloat, B.BytesMovedFloat);
  EXPECT_EQ(A.BytesMovedFloat2, B.BytesMovedFloat2);
  EXPECT_EQ(A.BytesMovedFloat4, B.BytesMovedFloat4);
  EXPECT_EQ(A.UsefulBytes, B.UsefulBytes);
  EXPECT_EQ(A.SharedAccessHalfWarps, B.SharedAccessHalfWarps);
  EXPECT_EQ(A.SharedBankExtraCycles, B.SharedBankExtraCycles);
  EXPECT_EQ(A.PartitionBytes, B.PartitionBytes);
}

/// One uncoalesced G80 global half-warp (16 transactions spread over the
/// partitions) and one 4-way conflicted shared half-warp, at \p Site.
void recordMixed(MemoryModel &MM, const void *Global, const void *Shared) {
  for (long long T = 0; T < 16; ++T) {
    MM.recordGlobal(Global, T, 8192 + 260 * T, 4, /*IsStore=*/false);
    MM.recordShared(Shared, T, 4 * ((T % 4) * 16 + T / 4), 4);
  }
}

} // namespace

TEST(MemoryModelWindow, SiteFoldedInOneWindowAddsNothingToTheNext) {
  DeviceSpec Dev = DeviceSpec::gtx8800();
  MemoryModel MM(Dev);
  int Global = 0, Shared = 0;
  MM.beginStatement();
  recordMixed(MM, &Global, &Shared);
  SimStats First;
  MM.endStatement(First);
  EXPECT_EQ(First.Transactions, 16);
  EXPECT_EQ(First.SharedBankExtraCycles, 3);

  // The next window touches no site: it folds nothing at all.
  MM.beginStatement();
  SimStats Empty;
  MM.endStatement(Empty);
  expectStatsEq(Empty, SimStats());

  // A window that touches one of the two sites folds that site alone.
  MM.beginStatement();
  for (long long T = 0; T < 16; ++T)
    MM.recordShared(&Shared, T, 4 * T, 4);
  SimStats SharedOnly;
  MM.endStatement(SharedOnly);
  EXPECT_EQ(SharedOnly.Transactions, 0);
  EXPECT_EQ(SharedOnly.GlobalLoadHalfWarps, 0);
  EXPECT_EQ(SharedOnly.SharedAccessHalfWarps, 1);
  EXPECT_EQ(SharedOnly.SharedBankExtraCycles, 0);
}

TEST(MemoryModelWindow, AccessesBeforeBeginStatementAreDiscarded) {
  // A loop header's bound and step evaluate outside any window; their
  // accesses are recorded, then dropped by the next beginStatement.
  DeviceSpec Dev = DeviceSpec::gtx8800();
  int Global = 0, Shared = 0, Body = 0;
  SimStats Want;
  {
    MemoryModel Fresh(Dev);
    Fresh.beginStatement();
    for (long long T = 0; T < 16; ++T)
      Fresh.recordGlobal(&Body, T, 4096 + 4 * T, 4, /*IsStore=*/true);
    Fresh.endStatement(Want);
  }
  MemoryModel MM(Dev);
  recordMixed(MM, &Global, &Shared);
  std::vector<MemoryModel::Access> &Sink =
      MM.globalSink(&Body, 4, /*IsStore=*/false);
  for (long long T = 0; T < 16; ++T)
    Sink.push_back({T, 100000 + 64 * T});
  MM.beginStatement();
  for (long long T = 0; T < 16; ++T)
    MM.recordGlobal(&Body, T, 4096 + 4 * T, 4, /*IsStore=*/true);
  SimStats Got;
  MM.endStatement(Got);
  expectStatsEq(Got, Want);
  EXPECT_EQ(Got.Transactions, 1);
  EXPECT_EQ(Got.GlobalStoreHalfWarps, 1);
  EXPECT_EQ(Got.SharedAccessHalfWarps, 0);
}

TEST(MemoryModelWindow, SiteRecordOrderDoesNotChangeTheFold) {
  DeviceSpec Dev = DeviceSpec::gtx8800();
  int Globals[2] = {0, 0}, Shareds[2] = {0, 0};
  auto Fold = [&](bool Descending) {
    MemoryModel MM(Dev);
    MM.beginStatement();
    if (Descending) {
      recordMixed(MM, &Globals[1], &Shareds[1]);
      recordMixed(MM, &Globals[0], &Shareds[0]);
    } else {
      recordMixed(MM, &Globals[0], &Shareds[0]);
      recordMixed(MM, &Globals[1], &Shareds[1]);
    }
    SimStats S;
    MM.endStatement(S);
    return S;
  };
  const SimStats Asc = Fold(false);
  const SimStats Desc = Fold(true);
  expectStatsEq(Desc, Asc);
  EXPECT_EQ(Asc.Transactions, 32);
  EXPECT_EQ(Asc.SharedAccessHalfWarps, 2);
  EXPECT_EQ(Asc.SharedBankExtraCycles, 6);
}

TEST(MemoryModelWindow, Float2SharedOnOneWordStillSerializes) {
  // Every lane reads the same float2: no broadcast, since a two-word
  // element spans two banks; each bank sees all 16 lanes.
  DeviceSpec Dev = DeviceSpec::gtx280();
  MemoryModel MM(Dev);
  int Site = 0;
  MM.beginStatement();
  for (long long T = 0; T < 16; ++T)
    MM.recordShared(&Site, T, 72, 8);
  SimStats Windowed;
  MM.endStatement(Windowed);
  EXPECT_EQ(Windowed.SharedAccessHalfWarps, 1);
  EXPECT_EQ(Windowed.SharedBankExtraCycles, 15);

  // The vector engine's direct fold of the same group.
  MemoryModel::Access Lanes[16];
  for (long long T = 0; T < 16; ++T)
    Lanes[T] = {T, 72};
  SimStats Direct;
  MM.foldSharedGroup(8, Lanes, 16, Direct);
  expectStatsEq(Direct, Windowed);

  // A float read broadcasts.
  SimStats Broadcast;
  MM.foldSharedGroup(4, Lanes, 16, Broadcast);
  EXPECT_EQ(Broadcast.SharedAccessHalfWarps, 1);
  EXPECT_EQ(Broadcast.SharedBankExtraCycles, 0);
}

TEST(MemoryModelWindow, Gt200Float4ScatterCountsEverySegment) {
  // 16 scattered float4 lanes: even lanes sit inside one 32-byte segment,
  // odd lanes straddle two. 24 segments, each one transaction of 32
  // bytes in the partition its address falls in (8 x 256 bytes).
  DeviceSpec Dev = DeviceSpec::gtx280();
  std::vector<std::pair<long long, long long>> Acc;
  for (long long T = 0; T < 16; ++T)
    Acc.push_back({T, 4096 + 544 * T + (T % 2 ? 24 : 0)});
  SimStats S = foldOne(Dev, Acc, 16);
  EXPECT_EQ(S.GlobalLoadHalfWarps, 1);
  EXPECT_EQ(S.UncoalescedHalfWarps, 1);
  EXPECT_EQ(S.CoalescedHalfWarps, 0);
  EXPECT_EQ(S.UsefulBytes, 256);
  EXPECT_EQ(S.Transactions, 24);
  EXPECT_EQ(S.BytesMovedFloat4, 768);
  EXPECT_EQ(S.PartitionBytes,
            (std::vector<double>{96, 64, 128, 128, 64, 64, 96, 128}));
}

//===----------------------------------------------------------------------===//
// Occupancy
//===----------------------------------------------------------------------===//

TEST(Occupancy, SharedMemoryLimitsBlocks) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {65536}, true);
  B.declShared("s", Type::floatTy(), {1200}); // 4.8 KB -> 3 blocks of 16 KB
  B.assign(B.at("s", {B.tidx()}), B.f(0));
  B.syncThreads();
  B.assign(B.at("c", {B.idx()}), B.at("s", {B.tidx()}));
  KernelFunction *K = B.finish(128, 1, 65536, 1);
  Occupancy O = computeOccupancy(DeviceSpec::gtx280(), *K);
  EXPECT_EQ(O.BlocksPerSM, 3);
  EXPECT_STREQ(O.LimitedBy, "shared");
}

TEST(Occupancy, ThreadLimit) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {65536}, true);
  B.assign(B.at("c", {B.idx()}), B.f(0));
  KernelFunction *K = B.finish(512, 1, 65536, 1);
  Occupancy O8800 = computeOccupancy(DeviceSpec::gtx8800(), *K);
  EXPECT_EQ(O8800.BlocksPerSM, 1); // 768 max threads / 512
  Occupancy O280 = computeOccupancy(DeviceSpec::gtx280(), *K);
  EXPECT_EQ(O280.BlocksPerSM, 2); // 1024 / 512
}

TEST(Occupancy, InfeasibleWhenSharedExceedsSM) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {4096}, true);
  B.declShared("s", Type::floatTy(), {8192}); // 32 KB > 16 KB
  B.assign(B.at("c", {B.idx()}), B.f(0));
  KernelFunction *K = B.finish(128, 1, 4096, 1);
  EXPECT_TRUE(computeOccupancy(DeviceSpec::gtx280(), *K).Infeasible);
}

TEST(Occupancy, RegisterEstimateCountsLiveLocals) {
  // 20 accumulators all live until the final store must count in full...
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {4096}, true);
  Expr *Sum = B.f(0);
  for (int I = 0; I < 20; ++I)
    B.decl("v" + std::to_string(I), Type::floatTy(), B.f(0));
  for (int I = 0; I < 20; ++I)
    Sum = B.add(Sum, B.v("v" + std::to_string(I)));
  B.assign(B.at("c", {B.idx()}), Sum);
  KernelFunction *K = B.finish(256, 1, 4096, 1);
  EXPECT_GE(estimateRegistersPerThread(*K), 20);
}

TEST(Occupancy, RegisterEstimateDiscountsDeadTemporaries) {
  // ...while straight-line temporaries that die immediately overlap only
  // briefly, like after real register allocation (the fft8 butterfly
  // would otherwise look infeasible).
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {4096}, true);
  for (int I = 0; I < 19; ++I)
    B.decl("v" + std::to_string(I), Type::floatTy(), B.f(0));
  B.decl("last", Type::floatTy(), B.f(1));
  B.assign(B.at("c", {B.idx()}), B.v("last"));
  KernelFunction *K = B.finish(256, 1, 4096, 1);
  EXPECT_LT(estimateRegistersPerThread(*K), 12);
}

namespace {

int scanRegsOfStmt(const Stmt *S);

/// The register estimate's reference definition: a declaration's live
/// range is found by scanning every later statement of its block for the
/// name, and every position tests every range.
int scanRegsOfCompound(const CompoundStmt *C) {
  const auto &Body = C->body();
  const size_t N = Body.size();
  if (N == 0)
    return 0;
  std::vector<std::pair<size_t, size_t>> Intervals;
  std::vector<int> Width;
  for (size_t I = 0; I < N; ++I) {
    const auto *D = dyn_cast<DeclStmt>(Body[I]);
    if (!D || D->isShared())
      continue;
    size_t Last = I;
    for (size_t J = I + 1; J < N; ++J)
      if (containsVar(Body[J], D->name()))
        Last = J;
    Intervals.emplace_back(I, Last);
    Type Ty = D->declType();
    Width.push_back(Ty.isFloatVector() ? Ty.vectorWidth() : 1);
  }
  int MaxDemand = 0;
  for (size_t P = 0; P < N; ++P) {
    int Demand = scanRegsOfStmt(Body[P]);
    for (size_t K = 0; K < Intervals.size(); ++K)
      if (Intervals[K].first <= P && P <= Intervals[K].second)
        Demand += Width[K];
    MaxDemand = std::max(MaxDemand, Demand);
  }
  return MaxDemand;
}

int scanRegsOfStmt(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Compound:
    return scanRegsOfCompound(cast<CompoundStmt>(S));
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    int ThenRegs = scanRegsOfCompound(If->thenBody());
    int ElseRegs = If->elseBody() ? scanRegsOfCompound(If->elseBody()) : 0;
    return std::max(ThenRegs, ElseRegs);
  }
  case StmtKind::For:
    return 1 + scanRegsOfCompound(cast<ForStmt>(S)->body());
  case StmtKind::While:
    return scanRegsOfCompound(cast<WhileStmt>(S)->body());
  case StmtKind::Decl:
  case StmtKind::Assign:
  case StmtKind::Sync:
    return 0;
  }
  return 0;
}

/// The reference block demand plus the fixed addressing allowance.
int scanRegisterEstimate(const KernelFunction &K) {
  return scanRegsOfCompound(K.body()) + 6;
}

/// Figure-11 sizes: 1024 except strsm 512, vv 2^20 and rd 2^21.
long long figure11Size(Algo A) {
  switch (A) {
  case Algo::STRSM:
    return 512;
  case Algo::VV:
    return 1LL << 20;
  case Algo::RD:
    return 1LL << 21;
  default:
    return 1024;
  }
}

} // namespace

TEST(Occupancy, RegisterEstimateMatchesTheScanOnEverySearchVariant) {
  // Every kernel a Figure-11 search produces, remap copies included: the
  // thread-merged bodies are the long blocks where a faster estimate could
  // drift from the reference.
  for (const DeviceSpec &Dev : {DeviceSpec::gtx280(), DeviceSpec::gtx8800()}) {
    for (Algo A : table1Algos()) {
      Module M;
      DiagnosticsEngine D;
      KernelFunction *Naive = parseNaive(M, A, figure11Size(A), D);
      ASSERT_NE(Naive, nullptr) << D.str();
      GpuCompiler GC(M, D);
      CompileOptions Opt;
      Opt.Device = Dev;
      Opt.Jobs = 1;
      CompileOutput Out = GC.compile(*Naive, Opt);
      ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
      int Checked = 0;
      for (const VariantResult &V : Out.Variants) {
        ASSERT_NE(V.Kernel, nullptr);
        EXPECT_EQ(estimateRegistersPerThread(*V.Kernel),
                  scanRegisterEstimate(*V.Kernel))
            << Dev.Name << " " << algoInfo(A).Name << " " << V.Layout
            << " b" << V.BlockMergeN << " t" << V.ThreadMergeM;
        ++Checked;
      }
      EXPECT_EQ(Checked, Out.Search.Candidates) << algoInfo(A).Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(Interpreter, ElementwiseKernel) {
  Module M;
  KernelBuilder B(M, "saxpy");
  B.arrayParam("x", Type::floatTy(), {256});
  B.arrayParam("y", Type::floatTy(), {256}, true);
  B.assign(B.at("y", {B.idx()}),
           B.add(B.mul(B.f(2.0), B.at("x", {B.idx()})), B.at("y", {B.idx()})));
  KernelFunction *K = B.finish(64, 1, 256, 1);
  BufferSet Buf;
  auto &X = Buf.alloc("x", 256);
  auto &Y = Buf.alloc("y", 256);
  for (int I = 0; I < 256; ++I) {
    X[static_cast<size_t>(I)] = static_cast<float>(I);
    Y[static_cast<size_t>(I)] = 1.0f;
  }
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, Buf, D)) << D.str();
  for (int I = 0; I < 256; ++I)
    EXPECT_FLOAT_EQ(Buf.data("y")[static_cast<size_t>(I)], 2.0f * I + 1.0f);
}

TEST(Interpreter, DivergentIfMasksThreads) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.beginIf(B.lt(B.idx(), B.i(10)));
  B.assign(B.at("c", {B.idx()}), B.f(1));
  B.beginElse();
  B.assign(B.at("c", {B.idx()}), B.f(2));
  B.endIf();
  KernelFunction *K = B.finish(32, 1, 64, 1);
  BufferSet Buf;
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, Buf, D)) << D.str();
  for (int I = 0; I < 64; ++I)
    EXPECT_FLOAT_EQ(Buf.data("c")[static_cast<size_t>(I)],
                    I < 10 ? 1.0f : 2.0f);
}

TEST(Interpreter, BarrierInDivergentFlowIsAnError) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.beginIf(B.lt(B.idx(), B.i(10)));
  B.syncThreads();
  B.assign(B.at("c", {B.idx()}), B.f(1));
  B.endIf();
  KernelFunction *K = B.finish(32, 1, 64, 1);
  BufferSet Buf;
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  EXPECT_FALSE(Sim.runFunctional(*K, Buf, D));
  EXPECT_TRUE(D.hasErrors());
}

TEST(Interpreter, OutOfBoundsIsReportedNotCrashing) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {16}, true);
  B.assign(B.at("c", {B.add(B.idx(), B.i(1000))}), B.f(1));
  KernelFunction *K = B.finish(16, 1, 16, 1);
  BufferSet Buf;
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  EXPECT_FALSE(Sim.runFunctional(*K, Buf, D));
  EXPECT_TRUE(D.hasErrors());
}

TEST(Interpreter, HalvingLoopAndGlobalSync) {
  // Mini tree reduction across two blocks: requires grid-wide lockstep.
  Module M;
  KernelBuilder B(M, "mini_rd");
  B.arrayParam("a", Type::floatTy(), {128}, true);
  B.scalarParam("n", Type::intTy(), 128);
  B.beginForHalving("s", B.div(B.iv("n"), B.i(2)));
  B.beginIf(B.lt(B.idx(), B.iv("s")));
  B.addAssign(B.at("a", {B.idx()}),
              B.at("a", {B.add(B.idx(), B.iv("s"))}));
  B.endIf();
  B.globalSync();
  B.endFor();
  KernelFunction *K = B.finish(32, 1, 64, 1); // 2 blocks of 32
  BufferSet Buf;
  auto &A = Buf.alloc("a", 128);
  float Want = 0;
  for (int I = 0; I < 128; ++I) {
    A[static_cast<size_t>(I)] = static_cast<float>(I % 7);
    Want += static_cast<float>(I % 7);
  }
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, Buf, D)) << D.str();
  EXPECT_NEAR(Buf.data("a")[0], Want, 1e-3);
}

TEST(Interpreter, Float2CopyKernel) {
  Module M;
  KernelFunction *K = bandwidthCopyKernel(M, 2, 512);
  BufferSet Buf;
  auto &A = Buf.alloc("a", 512);
  for (int I = 0; I < 512; ++I)
    A[static_cast<size_t>(I)] = static_cast<float>(I);
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, Buf, D)) << D.str();
  for (int I = 0; I < 512; ++I)
    EXPECT_FLOAT_EQ(Buf.data("c")[static_cast<size_t>(I)],
                    static_cast<float>(I));
}

//===----------------------------------------------------------------------===//
// Performance mode
//===----------------------------------------------------------------------===//

namespace {

KernelFunction *buildStreamKernel(Module &M, long long N, long long Iters) {
  KernelBuilder B(M, "stream");
  B.arrayParam("a", Type::floatTy(), {N, 1040});
  B.arrayParam("c", Type::floatTy(), {N}, true);
  B.scalarParam("w", Type::intTy(), Iters);
  B.decl("s", Type::floatTy(), B.f(0));
  B.beginFor("i", B.i(0), B.iv("w"), B.i(1));
  B.addAssign(B.v("s"), B.at("a", {B.idx(), B.iv("i")}));
  B.endFor();
  B.assign(B.at("c", {B.idx()}), B.v("s"));
  return B.finish(64, 1, N, 1);
}

} // namespace

TEST(PerfMode, LoopSamplingMatchesFullExecution) {
  // Statistics from sampled loops must extrapolate to (near) the full
  // execution's statistics — the access pattern is exactly periodic.
  Module M;
  KernelFunction *K = buildStreamKernel(M, 128, 512);
  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfOptions Sampled; // default: sampling on
  PerfOptions Full;
  Full.LoopSampleThreshold = 1 << 30; // never sample
  PerfResult RS = Sim.runPerformance(*K, D, Sampled);
  PerfResult RF = Sim.runPerformance(*K, D, Full);
  ASSERT_TRUE(RS.Valid && RF.Valid) << D.str();
  EXPECT_NEAR(RS.Stats.bytesMovedTotal() / RF.Stats.bytesMovedTotal(), 1.0,
              0.05);
  EXPECT_NEAR(RS.Stats.DynOps / RF.Stats.DynOps, 1.0, 0.15);
  EXPECT_NEAR(RS.TimeMs / RF.TimeMs, 1.0, 0.20);
}

TEST(PerfMode, UncoalescedKernelMovesMoreBytes) {
  Module M;
  // Row walk (uncoalesced, like mv's a[idx][i]).
  KernelFunction *Bad = buildStreamKernel(M, 128, 256);
  // Column walk (coalesced): a[i][idx].
  KernelBuilder B(M, "colwalk");
  B.arrayParam("a", Type::floatTy(), {1024, 128});
  B.arrayParam("c", Type::floatTy(), {128}, true);
  B.scalarParam("w", Type::intTy(), 256);
  B.decl("s", Type::floatTy(), B.f(0));
  B.beginFor("i", B.i(0), B.iv("w"), B.i(1));
  B.addAssign(B.v("s"), B.at("a", {B.iv("i"), B.idx()}));
  B.endFor();
  B.assign(B.at("c", {B.idx()}), B.v("s"));
  KernelFunction *Good = B.finish(64, 1, 128, 1);

  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfResult RBad = Sim.runPerformance(*Bad, D);
  PerfResult RGood = Sim.runPerformance(*Good, D);
  ASSERT_TRUE(RBad.Valid && RGood.Valid) << D.str();
  // 8x waste: 32-byte transactions for 4 useful bytes.
  EXPECT_GT(RBad.Stats.bytesMovedTotal(),
            6.0 * RGood.Stats.bytesMovedTotal());
  EXPECT_GT(RBad.TimeMs, RGood.TimeMs);
}

TEST(PerfMode, EqualTrafficSitesAreOrderedByLabel) {
  // Every site moves the same bytes; the traffic table must list them by
  // label, whatever order their nodes were allocated in.
  Module M;
  KernelBuilder B(M, "sum3");
  for (const char *Name : {"z", "m", "a"})
    B.arrayParam(Name, Type::floatTy(), {256});
  B.arrayParam("out", Type::floatTy(), {256}, true);
  Expr *Z = B.at("z", {B.idx()});
  Expr *Mid = B.at("m", {B.idx()});
  Expr *A = B.at("a", {B.idx()});
  B.assign(B.at("out", {B.idx()}), B.add(B.add(Z, Mid), A));
  KernelFunction *K = B.finish(64, 1, 256, 1);

  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfOptions PO;
  PO.TrackSites = true;
  PerfResult R = Sim.runPerformance(*K, D, PO);
  ASSERT_TRUE(R.Valid) << D.str();
  std::vector<std::string> Labels;
  for (const auto &[Label, T] : R.Sites) {
    EXPECT_EQ(T.BytesMoved, R.Sites.front().second.BytesMoved) << Label;
    Labels.push_back(Label);
  }
  EXPECT_EQ(Labels, (std::vector<std::string>{"load  a[idx]", "load  m[idx]",
                                              "load  z[idx]",
                                              "store out[idx]"}));
}

TEST(Timing, LaunchOverheadCountsGlobalSyncs) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  SimStats S;
  S.GlobalSyncs = 10 * 64; // 10 syncs counted by each of 64 blocks
  Occupancy O;
  O.BlocksPerSM = 1;
  O.ActiveThreadsPerSM = 256;
  TimingBreakdown TB = estimateTime(Dev, S, O, 64);
  EXPECT_NEAR(TB.LaunchMs, 11 * Dev.LaunchOverheadUs * 1e-3, 1e-9);
}

TEST(Timing, CampingSlowsMemory) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  SimStats Balanced;
  Balanced.BytesMovedFloat = 1e9;
  Balanced.PartitionBytes.assign(8, 1e9 / 8);
  SimStats Camped = Balanced;
  Camped.PartitionBytes.assign(8, 0.0);
  Camped.PartitionBytes[0] = 1e9;
  Occupancy O;
  O.BlocksPerSM = 8;
  O.ActiveThreadsPerSM = 1024;
  TimingBreakdown TBal = estimateTime(Dev, Balanced, O, 1024);
  TimingBreakdown TCamp = estimateTime(Dev, Camped, O, 1024);
  EXPECT_GT(TCamp.TotalMs, 2.0 * TBal.TotalMs);
  EXPECT_GT(TCamp.CampingFactor, 3.0);
}

TEST(Timing, LowOccupancyExposesLatency) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  SimStats S;
  S.DynOps = 1e8;
  S.BytesMovedFloat = 1e8;
  S.GlobalLoadHalfWarps = 1e6;
  Occupancy Low, High;
  Low.ActiveThreadsPerSM = 32;
  Low.BlocksPerSM = 1;
  High.ActiveThreadsPerSM = 768;
  High.BlocksPerSM = 3;
  TimingBreakdown TLow = estimateTime(Dev, S, Low, 1024);
  TimingBreakdown THigh = estimateTime(Dev, S, High, 1024);
  EXPECT_GT(TLow.TotalMs, THigh.TotalMs);
}
