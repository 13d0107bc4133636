//===-- tests/SanitizerTest.cpp - race detector and lint tests ------------===//
//
// The static race detector must prove every Table 1 naive kernel and every
// compiler-optimized kernel race-free, agree with the simulator's dynamic
// race sanitizer, and flag seeded barrier-removal mutants with the correct
// witness phase. Lints must fire on out-of-bounds and bank-conflicted
// shared accesses, verdict mode (--lint=strict) must qualify each finding
// as proven or possible, and the Verifier must reject barriers inside
// loops with thread-dependent trip counts.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "analysis/RaceDetector.h"
#include "analysis/Sanitizer.h"
#include "ast/Printer.h"
#include "ast/Verifier.h"
#include "ast/Walk.h"
#include "baselines/CpuReference.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "parser/Parser.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <functional>

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

/// Gives a naive kernel the canonical half-warp launch so the per-thread
/// address sets are non-trivial.
void setNaiveLaunch(KernelFunction &K) {
  LaunchConfig &L = K.launch();
  L.BlockDimX = 16;
  L.BlockDimY = 1;
  L.GridDimX = std::max<long long>(1, K.workDomainX() / 16);
  L.GridDimY = std::max<long long>(1, K.workDomainY());
}

/// Runs the dynamic race sanitizer over one functional execution.
RaceLog dynamicRaces(Algo A, long long N, const KernelFunction &K) {
  BufferSet B;
  initInputs(A, N, B);
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  RaceLog Log;
  EXPECT_TRUE(Sim.runFunctional(K, B, D, &Log)) << D.str();
  return Log;
}

/// Removes the \p Index-th __syncthreads (document order). \returns true
/// when a barrier was removed.
bool removeSync(Stmt *Root, int Index) {
  int Seen = 0;
  bool Removed = false;
  std::function<void(Stmt *)> Rec = [&](Stmt *S) {
    if (!S || Removed)
      return;
    if (auto *C = dyn_cast<CompoundStmt>(S)) {
      auto &Body = C->body();
      for (size_t I = 0; I < Body.size(); ++I) {
        if (isa<SyncStmt>(Body[I])) {
          if (Seen++ == Index) {
            Body.erase(Body.begin() + I);
            Removed = true;
            return;
          }
        } else {
          Rec(Body[I]);
        }
      }
      return;
    }
    if (auto *F = dyn_cast<ForStmt>(S))
      Rec(F->body());
    else if (auto *If = dyn_cast<IfStmt>(S)) {
      Rec(If->thenBody());
      Rec(If->elseBody());
    }
  };
  Rec(Root);
  return Removed;
}

int countSyncs(Stmt *Root) {
  int N = 0;
  forEachStmt(Root, [&](Stmt *S) {
    if (auto *Sync = dyn_cast<SyncStmt>(S))
      if (!Sync->isGlobal())
        ++N;
  });
  return N;
}

KernelFunction *parseSource(Module &M, const char *Src,
                            DiagnosticsEngine &D) {
  Parser P(Src, D);
  KernelFunction *K = P.parseKernel(M);
  EXPECT_NE(K, nullptr) << D.str();
  return K;
}

/// The static race detector over \p K as the sanitizer runs it, on one
/// phase model and one dataflow result.
RaceReport staticRaces(const KernelFunction &K) {
  const DataflowResult Facts = runDataflow(K);
  return detectSharedRaces(K, buildPhaseModel(K), &Facts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Table 1 kernels are race-free, statically and dynamically
//===----------------------------------------------------------------------===//

class SanitizerAlgo : public ::testing::TestWithParam<Algo> {};

TEST_P(SanitizerAlgo, NaiveKernelIsRaceFree) {
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  setNaiveLaunch(*K);

  RaceReport R = staticRaces(*K);
  EXPECT_TRUE(R.clean()) << (R.Findings.empty() ? "unanalyzable"
                                                : R.Findings[0].str());

  RaceLog Log = dynamicRaces(A, N, *K);
  EXPECT_TRUE(Log.clean()) << "dynamic sanitizer disagrees on naive "
                           << algoInfo(A).Name;
}

TEST_P(SanitizerAlgo, OptimizedKernelIsRaceFree) {
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOutput Out = GC.compile(*K);
  ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;

  // Static verdict: the barrier placement of every staging rewrite the
  // compiler performed is race-free.
  RaceReport R = staticRaces(*Out.Best);
  EXPECT_TRUE(R.Analyzable) << printKernel(*Out.Best);
  EXPECT_TRUE(R.Findings.empty())
      << R.Findings[0].str() << "\n"
      << printKernel(*Out.Best);

  // Dynamic cross-check agrees.
  RaceLog Log = dynamicRaces(A, N, *Out.Best);
  EXPECT_TRUE(Log.clean()) << "dynamic sanitizer disagrees on optimized "
                           << algoInfo(A).Name;
}

INSTANTIATE_TEST_SUITE_P(Table1, SanitizerAlgo,
                         ::testing::ValuesIn(table1Algos()),
                         [](const ::testing::TestParamInfo<Algo> &I) {
                           return std::string(algoInfo(I.param).Name);
                         });

//===----------------------------------------------------------------------===//
// Seeded barrier-removal mutants
//===----------------------------------------------------------------------===//

namespace {

/// Compiles \p A, removes barrier \p SyncIndex from the optimized kernel
/// and expects both detectors to flag a race in the same earliest phase.
void expectMutantFlagged(Algo A, int SyncIndex) {
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOutput Out = GC.compile(*K);
  ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
  ASSERT_GT(countSyncs(Out.Best->body()), SyncIndex)
      << printKernel(*Out.Best);
  ASSERT_TRUE(removeSync(Out.Best->body(), SyncIndex));

  RaceReport R = staticRaces(*Out.Best);
  ASSERT_TRUE(R.Analyzable);
  ASSERT_FALSE(R.Findings.empty())
      << "static detector missed the seeded race:\n"
      << printKernel(*Out.Best);

  RaceLog Log = dynamicRaces(A, N, *Out.Best);
  ASSERT_FALSE(Log.clean())
      << "dynamic sanitizer missed the seeded race:\n"
      << printKernel(*Out.Best);

  // Witness phase agreement: both detectors place the first race in the
  // same barrier phase (findings are sorted by phase; dynamic records are
  // chronological).
  int StaticPhase = R.Findings.front().Phase;
  int DynamicPhase = Log.Races.front().Phase;
  for (const RaceRecord &Rec : Log.Races)
    DynamicPhase = std::min(DynamicPhase, Rec.Phase);
  EXPECT_EQ(StaticPhase, DynamicPhase) << R.Findings.front().str();
}

} // namespace

TEST(SanitizerMutants, MmWithoutFirstBarrier) {
  expectMutantFlagged(Algo::MM, 0);
}

TEST(SanitizerMutants, MmWithoutSecondBarrier) {
  expectMutantFlagged(Algo::MM, 1);
}

TEST(SanitizerMutants, TmvWithoutFirstBarrier) {
  expectMutantFlagged(Algo::TMV, 0);
}

TEST(SanitizerMutants, ConvWithoutTileBarrier) {
  // Barrier 0 (after the halo staging) is redundant in conv's best kernel:
  // the inner tile loop's own barrier still separates those writes from
  // their readers. Barrier 1 guards the ker tile and its removal races.
  expectMutantFlagged(Algo::CONV, 1);
}

//===----------------------------------------------------------------------===//
// Deterministic small-kernel race: both detectors, same witness
//===----------------------------------------------------------------------===//

TEST(SanitizerMutants, MissingBarrierWriteReadRace) {
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float in[16][16],\n"
                    "                  float out[16][16]) {\n"
                    "  __shared__ float tile[16];\n"
                    "  tile[tidx] = in[idy][idx];\n"
                    "  out[idy][idx] = tile[(15 - tidx)];\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);

  RaceReport R = staticRaces(*K);
  ASSERT_TRUE(R.Analyzable);
  ASSERT_FALSE(R.Findings.empty());
  const RaceFinding &F = R.Findings.front();
  EXPECT_FALSE(F.WriteWrite); // write-read
  EXPECT_EQ(F.Phase, 0);
  EXPECT_EQ(F.Array, "tile");
  // The witness threads genuinely collide: thread t writes word t, thread
  // 15-t reads it.
  EXPECT_EQ(F.T1x + F.T2x, 15);

  // With the barrier restored the kernel is clean.
  const char *Fixed = "#pragma gpuc output(out)\n"
                      "__global__ void k(float in[16][16],\n"
                      "                  float out[16][16]) {\n"
                      "  __shared__ float tile[16];\n"
                      "  tile[tidx] = in[idy][idx];\n"
                      "  __syncthreads();\n"
                      "  out[idy][idx] = tile[(15 - tidx)];\n"
                      "}\n";
  Module M2;
  DiagnosticsEngine D2;
  KernelFunction *K2 = parseSource(M2, Fixed, D2);
  ASSERT_NE(K2, nullptr);
  setNaiveLaunch(*K2);
  RaceReport R2 = staticRaces(*K2);
  EXPECT_TRUE(R2.clean());
}

TEST(SanitizerStatic, RedundantHaloCopyIsBenign) {
  // The block-merge halo idiom: both stores copy the same global element
  // into the overlap words, so the write-write overlap is value-identical
  // and must not be reported.
  const char *Src = "#pragma gpuc output(out)\n"
                    "#pragma gpuc domain(128,16)\n"
                    "__global__ void k(float in[16][144],\n"
                    "                  float out[16][128]) {\n"
                    "  __shared__ float halo[144];\n"
                    "  halo[tidx] = in[idy][((idx - tidx) + tidx)];\n"
                    "  halo[(tidx + 16)] =\n"
                    "      in[idy][(((idx - tidx) + 16) + tidx)];\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = halo[(tidx + 8)];\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  LaunchConfig &L = K->launch();
  L.BlockDimX = 128; // merged block: the two stores overlap on words 16..127
  L.BlockDimY = 1;
  L.GridDimX = 1;
  L.GridDimY = 16;
  RaceReport R = staticRaces(*K);
  EXPECT_TRUE(R.clean()) << (R.Findings.empty() ? "unanalyzable"
                                                : R.Findings[0].str());

  // Copying from a *different* source element is a real write-write race.
  const char *Racy = "#pragma gpuc output(out)\n"
                     "#pragma gpuc domain(128,16)\n"
                     "__global__ void k(float in[16][144],\n"
                     "                  float out[16][128]) {\n"
                     "  __shared__ float halo[144];\n"
                     "  halo[tidx] = in[idy][((idx - tidx) + tidx)];\n"
                     "  halo[(tidx + 16)] =\n"
                     "      in[idy][(((idx - tidx) + 17) + tidx)];\n"
                     "  __syncthreads();\n"
                     "  out[idy][idx] = halo[(tidx + 8)];\n"
                     "}\n";
  Module M2;
  DiagnosticsEngine D2;
  KernelFunction *K2 = parseSource(M2, Racy, D2);
  ASSERT_NE(K2, nullptr);
  K2->launch() = L;
  RaceReport R2 = staticRaces(*K2);
  ASSERT_FALSE(R2.Findings.empty());
  EXPECT_TRUE(R2.Findings.front().WriteWrite);
}

TEST(SanitizerStatic, ElseBranchGuardsAreNegatedExactly) {
  // The else branch stores to s[0] on every thread the condition excludes:
  // one such thread is race-free, more is a write-write race. A negated
  // disjunction is an exact guard; a negated conjunction is not, so its
  // else branch may run on every thread.
  const struct {
    const char *Cond;
    bool Races;
  } Cases[] = {{"tidx < 15", false},
               {"tidx <= 14", false},
               {"tidx > 0", false},
               {"tidx >= 1", false},
               {"tidx != 0", false},
               {"tidx > 0 || tidx < 0", false},
               {"tidx == 0", true},
               {"!(tidx < 15)", true},
               {"tidx > 0 && tidx < 16", true}};
  for (const auto &C : Cases) {
    const std::string Src =
        std::string("#pragma gpuc output(out)\n"
                    "__global__ void k(float in[16][16],\n"
                    "                  float out[16][16]) {\n"
                    "  __shared__ float s[32];\n"
                    "  if (") +
        C.Cond +
        ") {\n"
        "    s[(tidx + 16)] = in[idy][idx];\n"
        "  } else {\n"
        "    s[0] = in[idy][idx];\n"
        "  }\n"
        "  __syncthreads();\n"
        "  out[idy][idx] = s[tidx];\n"
        "}\n";
    Module M;
    DiagnosticsEngine D;
    KernelFunction *K = parseSource(M, Src.c_str(), D);
    ASSERT_NE(K, nullptr) << C.Cond;
    setNaiveLaunch(*K);
    const RaceReport R = staticRaces(*K);
    EXPECT_TRUE(R.Analyzable) << C.Cond;
    EXPECT_EQ(!R.Findings.empty(), C.Races) << C.Cond;
  }
}

//===----------------------------------------------------------------------===//
// Lints
//===----------------------------------------------------------------------===//

TEST(Lint, FlagsSharedOutOfBounds) {
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float out[16][16]) {\n"
                    "  __shared__ float tile[16];\n"
                    "  tile[(tidx + 1)] = 1;\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = tile[tidx];\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  EXPECT_GT(lintKernel(*K, buildPhaseModel(*K), nullptr, D), 0);
  EXPECT_NE(D.str().find("out of bounds"), std::string::npos) << D.str();
}

TEST(Lint, FlagsBankConflicts) {
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float out[16][16]) {\n"
                    "  __shared__ float tile[16][16];\n"
                    "  tile[tidx][0] = 1;\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = tile[0][tidx];\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  EXPECT_GT(lintKernel(*K, buildPhaseModel(*K), nullptr, D), 0);
  EXPECT_NE(D.str().find("bank"), std::string::npos) << D.str();
}

TEST(Lint, CleanKernelHasNoWarnings) {
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float out[16][16]) {\n"
                    "  __shared__ float tile[16];\n"
                    "  tile[tidx] = 1;\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = tile[tidx];\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  LintOptions LO;
  LO.Coalescing = false; // a toy kernel need not be coalesced
  EXPECT_EQ(lintKernel(*K, buildPhaseModel(*K), nullptr, D, LO), 0)
      << D.str();
}

TEST(Lint, BoundsRangesSpanTheLaunchAndLoopTrips) {
  // Default mode bounds each address over every thread, block and loop
  // trip: the global load reaches element 15*16 + 15 + 3 (bytes up to
  // 1035), the shared store word 15 + 3.
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float in[16][16],\n"
                    "                  float out[16][16]) {\n"
                    "  __shared__ float tile[16];\n"
                    "  for (int i = 0; i < 4; i = i + 1) {\n"
                    "    tile[(tidx + i)] = in[idy][(idx + i)];\n"
                    "  }\n"
                    "  __syncthreads();\n"
                    "  out[idy][idx] = tile[tidx];\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  setNaiveLaunch(*K);
  LintOptions LO;
  LO.Coalescing = false;
  EXPECT_EQ(lintKernel(*K, buildPhaseModel(*K), nullptr, D, LO), 2)
      << D.str();
  const std::string T = D.str();
  EXPECT_NE(T.find("load of 'in[idy][(idx+i)]' may be out of bounds: byte "
                   "address range [0, 1035] exceeds the declared 1024 bytes"),
            std::string::npos)
      << T;
  EXPECT_NE(T.find("store of __shared__ 'tile[(tidx+i)]' may be out of "
                   "bounds: word range [0, 18] exceeds the declared 16 words"),
            std::string::npos)
      << T;
}

namespace {

/// Lints \p Src in verdict mode (gpucc --lint=strict) under the half-warp
/// launch; \returns the warnings' text and their count in \p Warnings.
std::string strictLint(const char *Src, bool Coalescing, int &Warnings) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  Warnings = 0;
  if (!K)
    return "";
  setNaiveLaunch(*K);
  LintOptions LO;
  LO.Strict = true;
  LO.Coalescing = Coalescing;
  const DataflowResult Facts = runDataflow(*K);
  Warnings = lintKernel(*K, buildPhaseModel(*K), &Facts, D, LO);
  return D.str();
}

bool mentions(const std::string &Text, const char *Phrase) {
  return Text.find(Phrase) != std::string::npos;
}

} // namespace

TEST(StrictLint, ReportsProvenOutOfBoundsStore) {
  int N = 0;
  std::string T = strictLint("#pragma gpuc output(out)\n"
                             "#pragma gpuc domain(64,1)\n"
                             "__global__ void k(float out[64]) {\n"
                             "  out[idx + 64] = 1.0f;\n"
                             "}\n",
                             /*Coalescing=*/false, N);
  EXPECT_EQ(N, 1) << T;
  EXPECT_TRUE(mentions(T, "store of 'out[(idx+64)]' is proven out of bounds"))
      << T;
}

TEST(StrictLint, ReportsPossiblyOutOfBoundsLoad) {
  // tidx * tidx has no affine form: in bounds cannot be proven, and the
  // fault cannot be proven either.
  int N = 0;
  std::string T = strictLint("#pragma gpuc output(out)\n"
                             "#pragma gpuc domain(64,1)\n"
                             "__global__ void k(float in[64], "
                             "float out[64]) {\n"
                             "  int i = tidx * tidx;\n"
                             "  out[idx] = in[i];\n"
                             "}\n",
                             /*Coalescing=*/false, N);
  EXPECT_EQ(N, 1) << T;
  EXPECT_TRUE(mentions(T, "load of 'in[i]' is possibly out of bounds "
                          "(in-bounds not proven)"))
      << T;
  EXPECT_FALSE(mentions(T, "proven out of bounds")) << T;
}

TEST(StrictLint, ClampedHaloStaysQuiet) {
  // The guard clips i to [0, 62]; the engine proves both accesses in
  // bounds, so verdict mode has nothing to say about them.
  int N = 0;
  std::string T = strictLint("#pragma gpuc output(out)\n"
                             "#pragma gpuc domain(64,1)\n"
                             "__global__ void k(float in[64], "
                             "float out[64]) {\n"
                             "  int i = idx - 1;\n"
                             "  if (i >= 0) {\n"
                             "    out[i] = in[i];\n"
                             "  }\n"
                             "}\n",
                             /*Coalescing=*/false, N);
  EXPECT_EQ(N, 0) << T;
}

TEST(StrictLint, QualifiesBankConflictsProvenOrPossible) {
  // Every half-warp lane of both stores lands in bank 0 (column 0) or
  // bank 1 (column 1). The unguarded store's conflict is proven; the
  // guard masks lanes off the second, so its all-lanes degree is only
  // possible.
  int N = 0;
  std::string T = strictLint("#pragma gpuc output(out)\n"
                             "__global__ void k(float out[16][16]) {\n"
                             "  __shared__ float tile[16][16];\n"
                             "  tile[tidx][0] = 1;\n"
                             "  if (tidx < 8) {\n"
                             "    tile[tidx][1] = 2;\n"
                             "  }\n"
                             "  __syncthreads();\n"
                             "  out[idy][idx] = tile[0][tidx];\n"
                             "}\n",
                             /*Coalescing=*/false, N);
  EXPECT_EQ(N, 2) << T;
  EXPECT_TRUE(mentions(T, "proven 16-way shared-memory bank conflict on "
                          "tile[tidx][0]"))
      << T;
  EXPECT_TRUE(mentions(T, "possible 16-way shared-memory bank conflict on "
                          "tile[tidx][1]"))
      << T;
}

TEST(StrictLint, ReportsPossiblyNonCoalescedLoad) {
  // Default mode stays silent on an address it cannot resolve; verdict
  // mode reports it as possible.
  int N = 0;
  std::string T = strictLint("#pragma gpuc output(out)\n"
                             "#pragma gpuc domain(16,1)\n"
                             "__global__ void k(float in[256], "
                             "float out[16]) {\n"
                             "  out[idx] = in[tidx * tidx];\n"
                             "}\n",
                             /*Coalescing=*/true, N);
  EXPECT_EQ(N, 1) << T;
  EXPECT_TRUE(mentions(T, "global load in[(tidx*tidx)] is possibly "
                          "non-coalesced (address not statically "
                          "resolvable)"))
      << T;
}

TEST(StrictLint, ReportsProvenlyNotCoalescedLoad) {
  int N = 0;
  std::string T = strictLint("#pragma gpuc output(out)\n"
                             "__global__ void k(float in[16][16], "
                             "float out[16][16]) {\n"
                             "  out[idy][idx] = in[idx][idy];\n"
                             "}\n",
                             /*Coalescing=*/true, N);
  EXPECT_EQ(N, 1) << T;
  EXPECT_TRUE(mentions(T, "global load in[idx][idy] is provenly not "
                          "coalesced ("))
      << T;
  EXPECT_TRUE(mentions(T, "thread stride 64 bytes)")) << T;
}

//===----------------------------------------------------------------------===//
// Verifier: thread-dependent barrier trip counts
//===----------------------------------------------------------------------===//

TEST(Verifier, FlagsThreadDependentTripBarrier) {
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float out[16][16]) {\n"
                    "  float s = 0;\n"
                    "  for (int i = 0; i < tidx; i = i + 1) {\n"
                    "    __syncthreads();\n"
                    "    s += 1;\n"
                    "  }\n"
                    "  out[idy][idx] = s;\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  EXPECT_TRUE(verifyKernel(*K).empty());
  const DataflowResult R = runDataflow(*K);
  bool Found = false;
  for (const BarrierFact &F : R.Barriers)
    Found |= F.Uniformity == Verdict::Violation &&
             F.Reason.find("thread-dependent") != std::string::npos;
  EXPECT_TRUE(Found) << "got " << R.Barriers.size() << " barrier facts";
}

TEST(Verifier, AcceptsUniformTripBarrier) {
  const char *Src = "#pragma gpuc output(out)\n"
                    "__global__ void k(float out[16][16]) {\n"
                    "  float s = 0;\n"
                    "  for (int i = 0; i < 4; i = i + 1) {\n"
                    "    __syncthreads();\n"
                    "    s += 1;\n"
                    "  }\n"
                    "  out[idy][idx] = s;\n"
                    "}\n";
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseSource(M, Src, D);
  ASSERT_NE(K, nullptr);
  EXPECT_TRUE(verifyKernel(*K).empty());
  for (const BarrierFact &F : runDataflow(*K).Barriers)
    EXPECT_EQ(F.Reason.find("thread-dependent"), std::string::npos)
        << F.Reason;
}

//===----------------------------------------------------------------------===//
// Diagnostics severities and -Werror
//===----------------------------------------------------------------------===//

TEST(Diagnostics, WarningsDoNotBlockByDefault) {
  DiagnosticsEngine D;
  D.warning(SourceLocation(), "suspicious");
  EXPECT_TRUE(D.hasWarnings());
  EXPECT_FALSE(D.hasErrors());
  EXPECT_EQ(D.warningCount(), 1u);
}

TEST(Diagnostics, WerrorPromotesWarnings) {
  DiagnosticsEngine D;
  D.setWarningsAsErrors(true);
  D.warning(SourceLocation(), "suspicious");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_NE(D.str().find("-Werror"), std::string::npos) << D.str();
}
