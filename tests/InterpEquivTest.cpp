//===-- tests/InterpEquivTest.cpp - scalar vs vector engine equivalence ---===//
//
// Golden equivalence between the two interpreter engines (DESIGN.md
// section 14): the lane-vectorized bytecode executor must be a drop-in
// replacement for the scalar AST walk. "Equivalent" here means the
// strongest possible form — output buffers bit-exact, every SimStats
// field exactly equal, race logs record-for-record identical — over the
// paper kernels, hand-written adversarial kernels, fuzzer seeds and the
// compiled search variants of generated kernels.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "ast/Walk.h"
#include "baselines/CpuReference.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "fuzz/KernelGen.h"
#include "fuzz/Oracle.h"
#include "parser/Parser.h"
#include "sim/Bytecode.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

using namespace gpuc;

namespace {

long long testSize(Algo A) {
  switch (A) {
  case Algo::RD:
  case Algo::CRD:
  case Algo::VV:
    return 4096;
  case Algo::CONV:
  case Algo::STRSM:
    return 64;
  default:
    return 128;
  }
}

/// Canonical half-warp launch for hand-parsed kernels (same as the
/// sanitizer tests) so lane masks and address sets are non-trivial.
void setNaiveLaunch(KernelFunction &K) {
  LaunchConfig &L = K.launch();
  L.BlockDimX = 16;
  L.BlockDimY = 1;
  L.GridDimX = std::max<long long>(1, K.workDomainX() / 16);
  L.GridDimY = std::max<long long>(1, K.workDomainY());
}

KernelFunction *parseSource(Module &M, const char *Src,
                            DiagnosticsEngine &D) {
  Parser P(Src, D);
  KernelFunction *K = P.parseKernel(M);
  EXPECT_NE(K, nullptr) << D.str();
  return K;
}

/// One functional execution under a chosen engine.
struct EngineRun {
  bool Ok = false;
  BufferSet Buffers;
  RaceLog Races;
  std::string Diag;
  /// Runs that asked for the vector engine but took the scalar walk.
  uint64_t ScalarFallbacks = 0;
};

EngineRun runEngine(InterpBackend B, const KernelFunction &K,
                    unsigned InputSeed) {
  EngineRun R;
  Simulator Sim(DeviceSpec::gtx280());
  Sim.setInterpBackend(B);
  fillFuzzInputs(K, R.Buffers, InputSeed);
  DiagnosticsEngine D;
  R.Ok = Sim.runFunctional(K, R.Buffers, D, &R.Races);
  R.Diag = D.str();
  R.ScalarFallbacks = Sim.scalarFallbacks();
  return R;
}

void expectRaceLogsEqual(const RaceLog &S, const RaceLog &V) {
  EXPECT_EQ(S.Phases, V.Phases);
  ASSERT_EQ(S.Races.size(), V.Races.size())
      << "engines logged different race counts";
  for (size_t I = 0; I < S.Races.size(); ++I) {
    const RaceRecord &A = S.Races[I];
    const RaceRecord &B = V.Races[I];
    EXPECT_EQ(A.Array, B.Array) << "record " << I;
    EXPECT_EQ(A.WriteWrite, B.WriteWrite) << "record " << I;
    EXPECT_EQ(A.Phase, B.Phase) << "record " << I;
    EXPECT_EQ(A.Word, B.Word) << "record " << I;
    EXPECT_EQ(A.T1, B.T1) << "record " << I;
    EXPECT_EQ(A.T2, B.T2) << "record " << I;
    EXPECT_EQ(A.Block, B.Block) << "record " << I;
  }
}

/// Runs \p K under both engines on identical seeded inputs and demands
/// bit-exact buffers plus a record-identical race log. On failing runs
/// only the outcome must agree: the engines abort at the same statement
/// but may discover the fault in a different thread (op-major vs
/// thread-major order), so diagnostics and partial state are not compared.
/// A successful vector run is moved into \p VectorRun when one is given.
void expectFunctionalEquiv(const KernelFunction &K, unsigned InputSeed = 1,
                           EngineRun *VectorRun = nullptr) {
  EngineRun S = runEngine(InterpBackend::Scalar, K, InputSeed);
  EngineRun V = runEngine(InterpBackend::Vector, K, InputSeed);
  ASSERT_EQ(S.Ok, V.Ok) << "engines disagree on outcome\nscalar: " << S.Diag
                        << "\nvector: " << V.Diag << "\n"
                        << printKernel(K);
  if (!S.Ok)
    return;
  for (const ParamDecl &P : K.params()) {
    if (!P.IsArray)
      continue;
    const std::vector<float> &A = S.Buffers.data(P.Name);
    const std::vector<float> &B = V.Buffers.data(P.Name);
    ASSERT_EQ(A.size(), B.size()) << P.Name;
    if (A.empty() ||
        std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0)
      continue;
    for (size_t I = 0; I < A.size(); ++I)
      if (std::memcmp(&A[I], &B[I], sizeof(float)) != 0) {
        ADD_FAILURE() << "buffer '" << P.Name << "' diverges at [" << I
                      << "]: scalar " << A[I] << ", vector " << B[I] << "\n"
                      << printKernel(K);
        return;
      }
  }
  expectRaceLogsEqual(S.Races, V.Races);
  if (VectorRun)
    *VectorRun = std::move(V);
}

void expectStatsEqual(const SimStats &S, const SimStats &V) {
  EXPECT_EQ(S.DynOps, V.DynOps);
  EXPECT_EQ(S.Flops, V.Flops);
  EXPECT_EQ(S.GlobalLoadHalfWarps, V.GlobalLoadHalfWarps);
  EXPECT_EQ(S.GlobalStoreHalfWarps, V.GlobalStoreHalfWarps);
  EXPECT_EQ(S.CoalescedHalfWarps, V.CoalescedHalfWarps);
  EXPECT_EQ(S.UncoalescedHalfWarps, V.UncoalescedHalfWarps);
  EXPECT_EQ(S.Transactions, V.Transactions);
  EXPECT_EQ(S.BytesMovedFloat, V.BytesMovedFloat);
  EXPECT_EQ(S.BytesMovedFloat2, V.BytesMovedFloat2);
  EXPECT_EQ(S.BytesMovedFloat4, V.BytesMovedFloat4);
  EXPECT_EQ(S.UsefulBytes, V.UsefulBytes);
  EXPECT_EQ(S.SharedAccessHalfWarps, V.SharedAccessHalfWarps);
  EXPECT_EQ(S.SharedBankExtraCycles, V.SharedBankExtraCycles);
  EXPECT_EQ(S.BlockSyncs, V.BlockSyncs);
  EXPECT_EQ(S.GlobalSyncs, V.GlobalSyncs);
  ASSERT_EQ(S.PartitionBytes.size(), V.PartitionBytes.size());
  for (size_t I = 0; I < S.PartitionBytes.size(); ++I)
    EXPECT_EQ(S.PartitionBytes[I], V.PartitionBytes[I]) << "partition " << I;
}

/// Performance-run equivalence: the sampled execution, extrapolated
/// statistics and analytical time must be exactly equal (EXPECT_EQ on
/// doubles — no tolerance), so search decisions cannot depend on the
/// engine.
void expectPerfEquiv(const KernelFunction &K,
                     const PerfOptions &PO = PerfOptions()) {
  Simulator Scalar(DeviceSpec::gtx280());
  Scalar.setInterpBackend(InterpBackend::Scalar);
  Simulator Vector(DeviceSpec::gtx280());
  Vector.setInterpBackend(InterpBackend::Vector);
  DiagnosticsEngine DS, DV;
  PerfResult RS = Scalar.runPerformance(K, DS, PO);
  PerfResult RV = Vector.runPerformance(K, DV, PO);
  ASSERT_EQ(RS.Valid, RV.Valid) << DS.str() << DV.str();
  if (!RS.Valid)
    return;
  expectStatsEqual(RS.Stats, RV.Stats);
  EXPECT_EQ(RS.TimeMs, RV.TimeMs);
}

/// One performance run of \p K on \p Sim.
PerfResult runPerf(const Simulator &Sim, const KernelFunction &K,
                   const PerfOptions &PO = PerfOptions()) {
  DiagnosticsEngine D;
  PerfResult R = Sim.runPerformance(K, D, PO);
  EXPECT_TRUE(R.Valid) << D.str();
  return R;
}

std::vector<Algo> paperAlgos() {
  std::vector<Algo> As = table1Algos();
  if (std::find(As.begin(), As.end(), Algo::CRD) == As.end())
    As.push_back(Algo::CRD);
  return As;
}

} // namespace

//===----------------------------------------------------------------------===//
// Paper kernels: functional + performance equivalence, and proof that the
// vector path actually engages (the kernels lower to bytecode).
//===----------------------------------------------------------------------===//

class InterpEquivAlgo : public ::testing::TestWithParam<Algo> {};

TEST_P(InterpEquivAlgo, FunctionalBitExact) {
  Algo A = GetParam();
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, testSize(A), D);
  ASSERT_NE(K, nullptr) << D.str();
  setNaiveLaunch(*K);
  expectFunctionalEquiv(*K);
}

TEST_P(InterpEquivAlgo, PerformanceStatsExact) {
  Algo A = GetParam();
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, testSize(A), D);
  ASSERT_NE(K, nullptr) << D.str();
  setNaiveLaunch(*K);
  expectPerfEquiv(*K);                            // default sampling
  expectPerfEquiv(*K, PerfOptions::lowerBoundProbe()); // search's probe profile
}

TEST_P(InterpEquivAlgo, LowersToBytecode) {
  // A silent fallback to the scalar walk would pass every equivalence
  // test; this pins the fast path: every paper kernel must compile to
  // bytecode.
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  setNaiveLaunch(*K);
  BufferSet B;
  initInputs(A, N, B);
  Interpreter I(DeviceSpec::gtx280(), *K, B, D);
  ASSERT_TRUE(I.prepare()) << D.str();
  std::unique_ptr<BcProgram> BC = compileBytecode(I);
  ASSERT_NE(BC, nullptr) << algoInfo(A).Name << " does not lower";
  EXPECT_GE(BC->KW, 1);
  EXPECT_LE(BC->KW, 4);
  if (A == Algo::MM) { // pure-float kernel: planes must not pay for float4
    EXPECT_EQ(BC->KW, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Paper, InterpEquivAlgo,
                         ::testing::ValuesIn(paperAlgos()),
                         [](const ::testing::TestParamInfo<Algo> &I) {
                           return std::string(algoInfo(I.param).Name);
                         });

//===----------------------------------------------------------------------===//
// Adversarial kernels: divergence, races, faults, vector types, loops
//===----------------------------------------------------------------------===//

namespace {

/// Parses \p Src, gives it the canonical launch and checks functional
/// equivalence (and, when \p Perf, performance equivalence too).
void expectSourceEquiv(const char *Src, bool Perf = true) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  expectFunctionalEquiv(*K);
  if (Perf) {
    expectPerfEquiv(*K);
    expectPerfEquiv(*K, PerfOptions::lowerBoundProbe());
  }
}

} // namespace

TEST(InterpEquivAdversarial, DivergentIfElse) {
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  float v = a[idy][idx];\n"
                    "  if (idx < 7) {\n"
                    "    v = v * 2.0f + 1.0f;\n"
                    "  } else {\n"
                    "    if (idy < 3) {\n"
                    "      v = v - a[idy][(15 - idx)];\n"
                    "    }\n"
                    "    v = v * v;\n"
                    "  }\n"
                    "  c[idy][idx] = v;\n"
                    "}\n");
}

TEST(InterpEquivAdversarial, DivergentWhileLoop) {
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  float v = a[idy][idx];\n"
                    "  int n = idx;\n"
                    "  while (n > 0) {\n"
                    "    v = v * 0.5f + 1.0f;\n"
                    "    n = n - 1;\n"
                    "  }\n"
                    "  c[idy][idx] = v;\n"
                    "}\n");
}

TEST(InterpEquivAdversarial, NonuniformForAndIntOps) {
  expectSourceEquiv(
      "#pragma gpuc output(c)\n"
      "__global__ void k(float a[16][16], float c[16][16]) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < (idx % 5) + 1; i = i + 1) {\n"
      "    int j = (idx * 7 + i * 3) % 16;\n"
      "    s += a[idy][j];\n"
      "  }\n"
      "  c[idy][idx] = s / ((idx / 4) + 1);\n"
      "}\n");
}

TEST(InterpEquivAdversarial, CompoundAssignAndNegZero) {
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  float v = a[idy][idx];\n"
                    "  v *= -0.0f;\n"
                    "  v -= a[idy][idx] * 0.0f;\n"
                    "  c[idy][idx] = v + fminf(a[idy][idx], -v);\n"
                    "}\n");
}

TEST(InterpEquivAdversarial, Float2Members) {
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float2 a[256], float c[16][16]) {\n"
                    "  float2 v = a[(idy * 16 + idx)];\n"
                    "  c[idy][idx] = v.x * 2.0f - v.y;\n"
                    "}\n");
}

TEST(InterpEquivAdversarial, SharedTileWithBarriers) {
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  __shared__ float tile[16];\n"
                    "  tile[tidx] = a[idy][idx];\n"
                    "  __syncthreads();\n"
                    "  float s = 0.0f;\n"
                    "  for (int i = 0; i < 16; i = i + 1) {\n"
                    "    s += tile[i];\n"
                    "  }\n"
                    "  __syncthreads();\n"
                    "  c[idy][idx] = s;\n"
                    "}\n");
}

TEST(InterpEquivAdversarial, WriteReadRaceLogsIdentical) {
  // Missing barrier: every cross-thread read races the writes. The race
  // logs must agree record for record (same pairs, same order).
  expectSourceEquiv("#pragma gpuc output(out)\n"
                    "__global__ void k(float in[16][16],\n"
                    "                  float out[16][16]) {\n"
                    "  __shared__ float tile[16];\n"
                    "  tile[tidx] = in[idy][idx];\n"
                    "  out[idy][idx] = tile[(15 - tidx)];\n"
                    "}\n",
                    /*Perf=*/false);
}

TEST(InterpEquivAdversarial, WriteWriteRaceLogsIdentical) {
  expectSourceEquiv("#pragma gpuc output(out)\n"
                    "__global__ void k(float in[16][16],\n"
                    "                  float out[16][16]) {\n"
                    "  __shared__ float acc[4];\n"
                    "  acc[(tidx % 4)] = in[idy][idx];\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = acc[(tidx % 4)];\n"
                    "}\n",
                    /*Perf=*/false);
}

TEST(InterpEquivAdversarial, BenignSameValueWrites) {
  // Redundant-halo idiom: overlapping writes store the same word, which
  // the sanitizer exempts. Both engines must apply the exemption to the
  // same pre-store contents.
  expectSourceEquiv("#pragma gpuc output(out)\n"
                    "__global__ void k(float in[16][16],\n"
                    "                  float out[16][16]) {\n"
                    "  __shared__ float halo[4];\n"
                    "  halo[(tidx % 4)] = in[idy][(tidx % 4)];\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = halo[(tidx % 4)];\n"
                    "}\n",
                    /*Perf=*/false);
}

TEST(InterpEquivAdversarial, TwoSharedReadsRaceInThreadOrder) {
  // One statement reads the shared array twice with no barrier after the
  // store. Thread by thread, the first conflict is thread 2's second read
  // of word 3 (written by thread 3), which comes before thread 5's first
  // read of word 6. Replaying the two reads op by op would log word 6.
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(
      M,
      "#pragma gpuc output(out)\n"
      "__global__ void k(float in[16][16],\n"
      "                  float out[16][16]) {\n"
      "  __shared__ float a[16];\n"
      "  a[tidx] = in[idy][idx];\n"
      "  out[idy][idx] = a[((tidx + (tidx / 5)) % 16)] +\n"
      "                  a[((tidx + (tidx / 2)) % 16)];\n"
      "}\n",
      D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  for (InterpBackend B : {InterpBackend::Scalar, InterpBackend::Vector}) {
    SCOPED_TRACE(B == InterpBackend::Scalar ? "scalar" : "vector");
    EngineRun R = runEngine(B, *K, /*InputSeed=*/1);
    ASSERT_TRUE(R.Ok) << R.Diag;
    ASSERT_EQ(R.Races.Races.size(), 1u);
    const RaceRecord &Rec = R.Races.Races[0];
    EXPECT_EQ(Rec.Array, "a");
    EXPECT_FALSE(Rec.WriteWrite);
    EXPECT_EQ(Rec.Phase, 0);
    EXPECT_EQ(Rec.Word, 3);
    EXPECT_EQ(Rec.T1, 3);
    EXPECT_EQ(Rec.T2, 2);
    EXPECT_EQ(Rec.Block, 0);
  }
}

TEST(InterpEquivAdversarial, OutOfBoundsFaultsInBoth) {
  // Failing runs: same verdict required; partial state is not compared
  // (the engines discover the fault in different thread order).
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  c[idy][idx] = a[idy][(idx + 12)];\n"
                    "}\n",
                    /*Perf=*/false);
}

TEST(InterpEquivAdversarial, StoreIndexReadsStoredArray) {
  // The second store's index loads the array it stores. The vector engine
  // does not lower that shape, so every run takes the scalar walk: the
  // engines agree trivially, and each run counts one scalar fallback.
  const char *Src = "#pragma gpuc output(p)\n"
                    "__global__ void k(float a[16][16], float p[16][16]) {\n"
                    "  p[idy][idx] = idx;\n"
                    "  p[idy][p[idy][idx]] = a[idy][idx] * 2.0f;\n"
                    "}\n";
  expectSourceEquiv(Src);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_EQ(Sim.interpBackend(), InterpBackend::Vector);
  BufferSet B;
  fillFuzzInputs(*K, B, /*Seed=*/1);
  ASSERT_TRUE(Sim.runFunctional(*K, B, D)) << D.str();
  EXPECT_EQ(Sim.scalarFallbacks(), 1u);
  runPerf(Sim, *K);
  EXPECT_EQ(Sim.scalarFallbacks(), 2u);
  runPerf(Sim, *K, PerfOptions::lowerBoundProbe());
  EXPECT_EQ(Sim.scalarFallbacks(), 3u);
}

TEST(InterpEquivAdversarial, SharedIndexInLoopBound) {
  // Loop bound reads shared memory. Race-logged functional runs and
  // sampled performance runs both stay on the vector path; this checks
  // interleaving equivalence of the per-round loop-header evaluation.
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  __shared__ float lim[16];\n"
                    "  lim[tidx] = 4.0f;\n"
                    "  __syncthreads();\n"
                    "  float s = 0.0f;\n"
                    "  for (int i = 0; i < lim[tidx]; i = i + 1) {\n"
                    "    s += a[idy][(i % 16)];\n"
                    "  }\n"
                    "  c[idy][idx] = s;\n"
                    "}\n");
}

TEST(InterpEquivAdversarial, LongUniformLoopSampled) {
  // 64 uniform iterations with LoopSampleThreshold=24: the sampled
  // fast-forward path must extrapolate identically in both engines.
  expectSourceEquiv("#pragma gpuc output(c)\n"
                    "__global__ void k(float a[16][16], float c[16][16]) {\n"
                    "  float s = 0.0f;\n"
                    "  for (int i = 0; i < 64; i = i + 1) {\n"
                    "    s += a[idy][(i % 16)] * 0.25f;\n"
                    "  }\n"
                    "  c[idy][idx] = s;\n"
                    "}\n");
}

//===----------------------------------------------------------------------===//
// Search-winner identity: the engine must never change what the compiler
// picks, nor the time it reports.
//===----------------------------------------------------------------------===//

TEST(InterpEquivSearch, MmWinnerIdentical) {
  const long long N = 128;
  Module MS, MV;
  DiagnosticsEngine DS, DV;
  KernelFunction *KS = parseNaive(MS, Algo::MM, N, DS);
  KernelFunction *KV = parseNaive(MV, Algo::MM, N, DV);
  ASSERT_NE(KS, nullptr);
  ASSERT_NE(KV, nullptr);
  CompileOptions CS, CV;
  CS.Interp = InterpBackend::Scalar;
  CV.Interp = InterpBackend::Vector;
  GpuCompiler GS(MS, DS), GV(MV, DV);
  CompileOutput OS = GS.compile(*KS, CS);
  CompileOutput OV = GV.compile(*KV, CV);
  ASSERT_NE(OS.Best, nullptr) << OS.Log;
  ASSERT_NE(OV.Best, nullptr) << OV.Log;
  EXPECT_EQ(OS.BestVariant.BlockMergeN, OV.BestVariant.BlockMergeN);
  EXPECT_EQ(OS.BestVariant.ThreadMergeM, OV.BestVariant.ThreadMergeM);
  EXPECT_EQ(OS.BestVariant.Perf.TimeMs, OV.BestVariant.Perf.TimeMs);
  expectStatsEqual(OS.BestVariant.Perf.Stats, OV.BestVariant.Perf.Stats);
  EXPECT_EQ(printKernel(*OS.Best), printKernel(*OV.Best));
}

//===----------------------------------------------------------------------===//
// Compiled variants: the search's staged and merged kernels, racy on
// purpose, record-identical under both engines
//===----------------------------------------------------------------------===//

namespace {

/// After the named stage, deletes every __syncthreads (the fault injection
/// tests/FuzzTest.cpp uses for its Race verdicts).
StageHook dropSyncsAfter(std::string Target) {
  return [Target](const char *Stage, KernelFunction &K, bool) {
    if (Target != Stage)
      return;
    forEachStmt(K.body(), [](Stmt *S) {
      if (auto *C = dyn_cast<CompoundStmt>(S)) {
        auto &Body = C->body();
        Body.erase(std::remove_if(Body.begin(), Body.end(),
                                  [](Stmt *B) {
                                    auto *Sync = dyn_cast<SyncStmt>(B);
                                    return Sync && !Sync->isGlobal();
                                  }),
                   Body.end());
      }
    });
  };
}

} // namespace

TEST(InterpEquivCompiled, RacyVariantsMatchUnderBothEngines) {
  // Two generated seeds each of map2d, mvlike and mmlike. With the
  // barriers gone after coalesce, the staged tiles race, so the variants'
  // race logs have records to compare, not only outputs.
  int Variants = 0;
  size_t Records = 0;
  for (unsigned Seed : {0u, 1u, 9u, 12u, 17u, 28u}) {
    GeneratedKernel GK = KernelGen(Seed).generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + " (" + GK.Shape + ")");
    Module M;
    DiagnosticsEngine D;
    KernelFunction *K = parseSource(M, GK.Source.c_str(), D);
    ASSERT_NE(K, nullptr);
    CompileOptions CO;
    CO.Jobs = 1;
    CO.HookFactory = [](DiagnosticsEngine &) {
      return dropSyncsAfter("coalesce");
    };
    GpuCompiler GC(M, D);
    CompileOutput Out = GC.compile(*K, CO);
    ASSERT_NE(Out.Best, nullptr) << Out.Log;
    for (const VariantResult &V : Out.Variants) {
      if (!V.Kernel)
        continue;
      SCOPED_TRACE(V.Kernel->name());
      ++Variants;
      EngineRun VR;
      expectFunctionalEquiv(*V.Kernel, /*InputSeed=*/Seed + 1u, &VR);
      EXPECT_TRUE(VR.Ok) << VR.Diag;
      EXPECT_EQ(VR.ScalarFallbacks, 0u);
      Records += VR.Races.Races.size();
    }
  }
  EXPECT_EQ(Variants, 206);
  EXPECT_EQ(Records, 1526u);
}

//===----------------------------------------------------------------------===//
// Fuzzer seeds: 100 generated kernels, bit-exact under both engines
//===----------------------------------------------------------------------===//

TEST(InterpEquivFuzz, HundredSeedsBitExact) {
  int Parsed = 0;
  for (unsigned Seed = 0; Seed < 100; ++Seed) {
    KernelGen Gen(Seed);
    GeneratedKernel GK = Gen.generate();
    Module M;
    DiagnosticsEngine D;
    Parser P(GK.Source, D);
    KernelFunction *K = P.parseKernel(M);
    ASSERT_NE(K, nullptr) << "seed " << Seed << ":\n"
                          << D.str() << GK.Source;
    ++Parsed;
    SCOPED_TRACE("seed " + std::to_string(Seed) + " (" + GK.Shape + ")");
    expectFunctionalEquiv(*K, /*InputSeed=*/Seed * 2654435761u + 1u);
    if (Seed % 10 == 0)
      expectPerfEquiv(*K);
  }
  EXPECT_EQ(Parsed, 100);
}
