//===-- tests/FusionTest.cpp - kernel fusion golden-equivalence suite -----===//
//
// The fusion-differential battery for multi-kernel pipelines:
//  * legality decisions (register, shared-stage, must-reject) are pinned
//    per hand-written pipeline;
//  * the fused naive kernel matches the unfused chain bit-for-bit on the
//    final stage's outputs, under both interpreter engines (enforced by
//    fuzz/Oracle's runPipelineOracle, which this suite drives);
//  * decisions, diagnostics and the emitted program text are byte-stable
//    across repeated compiles and any --jobs level;
//  * the fusion and scalar-fallback counters surface through SearchStats.
//
//===----------------------------------------------------------------------===//

#include "ast/Builder.h"
#include "core/Compiler.h"
#include "core/Report.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Oracle.h"
#include "parser/Parser.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace gpuc;

namespace {

//===----------------------------------------------------------------------===//
// The hand-written pipeline corpus
//===----------------------------------------------------------------------===//

/// 1. Two element-wise 1-D stages: the always-fusable baseline.
const char *MapChain =
    "#pragma gpuc pipeline(scale -> clampf)\n"
    "#pragma gpuc output(t)\n"
    "__global__ void scale(float a[256], float t[256]) {\n"
    "  t[idx] = (a[idx]*2.0f);\n"
    "}\n"
    "#pragma gpuc output(z)\n"
    "__global__ void clampf(float t[256], float b[256], float z[256]) {\n"
    "  z[idx] = fmaxf(t[idx], b[idx]);\n"
    "}\n";

/// 2. Three element-wise stages: the left fold must fuse both links.
const char *Chain3 =
    "#pragma gpuc pipeline(s0 -> s1 -> s2)\n"
    "#pragma gpuc output(t0)\n"
    "__global__ void s0(float a[192], float t0[192]) {\n"
    "  t0[idx] = (a[idx]+1.0f);\n"
    "}\n"
    "#pragma gpuc output(t1)\n"
    "__global__ void s1(float t0[192], float t1[192]) {\n"
    "  t1[idx] = (t0[idx]*t0[idx]);\n"
    "}\n"
    "#pragma gpuc output(z)\n"
    "__global__ void s2(float t1[192], float b[192], float z[192]) {\n"
    "  z[idx] = (t1[idx]-b[idx]);\n"
    "}\n";

/// 3. BLAS-2: mv feeding a vector epilogue. Fusing keeps the dot product
/// in a register and skips a full round trip of y through global memory,
/// so the model must pick the fused side.
std::string blas2(long long N) {
  return strFormat(
      "#pragma gpuc pipeline(mv -> axpy)\n"
      "#pragma gpuc output(y)\n"
      "#pragma gpuc bind(w=%lld)\n"
      "__global__ void mv(float a[%lld][%lld], float x[%lld], float y[%lld],"
      " int w) {\n"
      "  float sum = 0.0f;\n"
      "  for (int i = 0; i < w; i = i + 1) {\n"
      "    sum += (a[idx][i]*x[i]);\n"
      "  }\n"
      "  y[idx] = sum;\n"
      "}\n"
      "#pragma gpuc output(z)\n"
      "__global__ void axpy(float y[%lld], float b[%lld], float z[%lld]) {\n"
      "  z[idx] = (y[idx]+b[idx]);\n"
      "}\n",
      N, N, N, N, N, N, N, N);
}

/// 4. BLAS-3: mm feeding an element-wise 2-D epilogue (register fusion on
/// a 2-D domain).
const char *Blas3 =
    "#pragma gpuc pipeline(mm -> addm)\n"
    "#pragma gpuc output(t)\n"
    "#pragma gpuc bind(w=32)\n"
    "__global__ void mm(float a[32][32], float b[32][32], float t[32][32],"
    " int w) {\n"
    "  float sum = 0.0f;\n"
    "  for (int i = 0; i < w; i = i + 1) {\n"
    "    sum += (a[idy][i]*b[i][idx]);\n"
    "  }\n"
    "  t[idy][idx] = sum;\n"
    "}\n"
    "#pragma gpuc output(z)\n"
    "__global__ void addm(float t[32][32], float d[32][32],"
    " float z[32][32]) {\n"
    "  z[idy][idx] = (t[idy][idx]+d[idy][idx]);\n"
    "}\n";

/// 5. Guarded 3-tap stencil consumer: overlapping segments, so the fused
/// kernel stages the intermediate's tile + halo through shared memory.
/// The guards keep the unfused chain in bounds at the edges too.
std::string stencil(long long N) {
  return strFormat(
      "#pragma gpuc pipeline(blur0 -> blur1)\n"
      "#pragma gpuc output(t)\n"
      "__global__ void blur0(float a[%lld], float t[%lld]) {\n"
      "  t[idx] = (a[idx]*0.5f);\n"
      "}\n"
      "#pragma gpuc output(z)\n"
      "__global__ void blur1(float t[%lld], float z[%lld]) {\n"
      "  if (idx >= 1) {\n"
      "    if (idx < %lld) {\n"
      "      z[idx] = ((t[(idx-1)]+t[idx])+t[(idx+1)]);\n"
      "    } else {\n"
      "      z[idx] = t[idx];\n"
      "    }\n"
      "  } else {\n"
      "    z[idx] = t[idx];\n"
      "  }\n"
      "}\n",
      N, N, N, N, N - 1);
}

/// 6. The must-reject case: the consumer reduces the whole intermediate
/// through a loop-variable index. Fusing would need an inter-block
/// barrier, so legality must refuse and the chain must run unfused.
const char *IllegalDot =
    "#pragma gpuc pipeline(prod -> dot)\n"
    "#pragma gpuc output(t)\n"
    "__global__ void prod(float a[64], float t[64]) {\n"
    "  t[idx] = (a[idx]+a[idx]);\n"
    "}\n"
    "#pragma gpuc output(z)\n"
    "#pragma gpuc bind(n=64)\n"
    "__global__ void dot(float t[64], float z[64], int n) {\n"
    "  float acc = 0.0f;\n"
    "  for (int i = 0; i < n; i = i + 1) {\n"
    "    acc += t[i];\n"
    "  }\n"
    "  z[idx] = acc;\n"
    "}\n";

struct NamedPipeline {
  const char *Name;
  std::string Source;
};

// gtest_discover_tests puts the printed parameter into each test's name;
// gtest's fallback prints the struct's bytes, pointers included, which
// differ from build to build.
void PrintTo(const NamedPipeline &P, std::ostream *OS) { *OS << P.Name; }

const NamedPipeline Corpus[] = {
    {"map_chain", MapChain},         {"chain3", Chain3},
    {"blas2", blas2(128)},           {"blas2_256", blas2(256)},
    {"blas2_512", blas2(512)},       {"blas3", Blas3},
    {"stencil", stencil(128)},       {"stencil_4096", stencil(4096)},
    {"illegal_dot", IllegalDot},
};

/// Value-only snapshot of a program compilation (safe to keep after the
/// owning Module dies).
struct ProgSnapshot {
  bool Legal = false;
  bool UseFused = false;
  double FusedMs = 0, UnfusedMs = 0;
  std::string Text;
  std::string Diags;
  std::string Reason;
  std::vector<FusionDecision> Steps;
  SearchStats Search;
};

ProgSnapshot compileSrc(const std::string &Src, int Jobs = 1) {
  Module M;
  DiagnosticsEngine ParseDiags;
  Parser P(Src, ParseDiags);
  std::vector<KernelFunction *> Stages = P.parseProgram(M);
  EXPECT_GE(Stages.size(), 2u) << ParseDiags.str();
  std::vector<const KernelFunction *> CStages(Stages.begin(), Stages.end());

  CompileOptions Opt;
  Opt.Jobs = Jobs;
  DiagnosticsEngine Diags;
  GpuCompiler GC(M, Diags);
  ProgramCompileOutput Out = GC.compileProgram(CStages, Opt);

  ProgSnapshot S;
  S.Legal = Out.FusionLegal;
  S.UseFused = Out.UseFused;
  S.FusedMs = Out.FusedMs;
  S.UnfusedMs = Out.UnfusedMs;
  S.Text = Out.ProgramText;
  S.Diags = Diags.str();
  S.Reason = Out.FusionReason;
  S.Steps = Out.FusionSteps;
  S.Search = Out.Search;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Legality decisions
//===----------------------------------------------------------------------===//

TEST(FusionDecisionTest, RegisterChainIsLegal) {
  ProgSnapshot S = compileSrc(MapChain);
  EXPECT_TRUE(S.Diags.empty()) << S.Diags;
  ASSERT_TRUE(S.Legal) << S.Reason;
  ASSERT_EQ(S.Steps.size(), 1u);
  EXPECT_EQ(S.Steps[0].Placement, FusePlacement::Register);
  EXPECT_EQ(S.Steps[0].Intermediate, "t");
}

TEST(FusionDecisionTest, ThreeStageChainFusesBothLinks) {
  ProgSnapshot S = compileSrc(Chain3);
  ASSERT_TRUE(S.Legal) << S.Reason;
  ASSERT_EQ(S.Steps.size(), 2u);
  EXPECT_EQ(S.Steps[0].Placement, FusePlacement::Register);
  EXPECT_EQ(S.Steps[0].Intermediate, "t0");
  EXPECT_EQ(S.Steps[1].Placement, FusePlacement::Register);
  EXPECT_EQ(S.Steps[1].Intermediate, "t1");
}

TEST(FusionDecisionTest, Blas2WinnerIsFused) {
  // The acceptance case: eliminating the y round trip must win the
  // design-space comparison, not just be legal, at every size.
  for (long long N : {128, 256, 512}) {
    ProgSnapshot S = compileSrc(blas2(N));
    ASSERT_TRUE(S.Legal) << N << ": " << S.Reason;
    ASSERT_EQ(S.Steps.size(), 1u) << N;
    EXPECT_EQ(S.Steps[0].Placement, FusePlacement::Register) << N;
    EXPECT_TRUE(S.UseFused) << N << ": fused " << S.FusedMs
                            << " ms vs unfused " << S.UnfusedMs << " ms";
    EXPECT_LT(S.FusedMs, S.UnfusedMs) << N;
    EXPECT_EQ(S.Search.FusionCandidates, 1) << N;
    EXPECT_EQ(S.Search.FusionLegal, 1) << N;
    EXPECT_EQ(S.Search.FusionWins, 1) << N;
  }
}

TEST(FusionDecisionTest, Blas3MmChainIsRegisterLegal) {
  ProgSnapshot S = compileSrc(Blas3);
  ASSERT_TRUE(S.Legal) << S.Reason;
  ASSERT_EQ(S.Steps.size(), 1u);
  EXPECT_EQ(S.Steps[0].Placement, FusePlacement::Register);
}

TEST(FusionDecisionTest, GuardedStencilStagesThroughShared) {
  for (long long N : {128, 4096}) {
    ProgSnapshot S = compileSrc(stencil(N));
    ASSERT_TRUE(S.Legal) << N << ": " << S.Reason;
    ASSERT_EQ(S.Steps.size(), 1u) << N;
    EXPECT_EQ(S.Steps[0].Placement, FusePlacement::SharedStage) << N;
    EXPECT_EQ(S.Steps[0].HaloLo, -1) << N;
    EXPECT_EQ(S.Steps[0].HaloHi, 1) << N;
    EXPECT_GT(S.Steps[0].StagingBytes, 0) << N;
  }
}

TEST(FusionDecisionTest, LoopConsumerIsRejected) {
  // The acceptance case on the other side of the fence.
  ProgSnapshot S = compileSrc(IllegalDot);
  EXPECT_TRUE(S.Diags.empty()) << S.Diags; // a rejection is not an error
  EXPECT_FALSE(S.Legal);
  EXPECT_FALSE(S.UseFused);
  EXPECT_NE(S.Reason.find("loop variable"), std::string::npos) << S.Reason;
  EXPECT_EQ(S.Search.FusionRejected, 1);
  EXPECT_EQ(S.Search.FusionWins, 0);
}

//===----------------------------------------------------------------------===//
// Golden equivalence: fused == unfused, bit for bit, on both engines
//===----------------------------------------------------------------------===//

class FusionEquivalence
    : public ::testing::TestWithParam<std::tuple<NamedPipeline, bool>> {};

TEST_P(FusionEquivalence, FusedMatchesUnfusedChain) {
  const NamedPipeline &NP = std::get<0>(GetParam());
  const bool Vector = std::get<1>(GetParam());
  OracleOptions Opt;
  Opt.Compile.Interp =
      Vector ? InterpBackend::Vector : InterpBackend::Scalar;
  OracleResult R;
  std::string Errs;
  ASSERT_TRUE(checkPipelineSource(NP.Source, Opt, R, Errs))
      << NP.Name << ":\n" << Errs;
  EXPECT_TRUE(R.Passed) << NP.Name << ": "
                        << (R.Failures.empty() ? ""
                                               : R.Failures.front().Detail);
  EXPECT_GE(R.VariantsChecked, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FusionEquivalence,
    ::testing::Combine(::testing::ValuesIn(Corpus), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FusionEquivalence::ParamType> &I) {
      return std::string(std::get<0>(I.param).Name) +
             (std::get<1>(I.param) ? "_vector" : "_scalar");
    });

//===----------------------------------------------------------------------===//
// Determinism: decisions, text and diagnostics are jobs-invariant
//===----------------------------------------------------------------------===//

TEST(FusionDeterminismTest, ProgramTextAndDecisionAreJobsInvariant) {
  for (const NamedPipeline &NP : Corpus) {
    ProgSnapshot One = compileSrc(NP.Source, /*Jobs=*/1);
    ProgSnapshot Again = compileSrc(NP.Source, /*Jobs=*/1);
    ProgSnapshot Eight = compileSrc(NP.Source, /*Jobs=*/8);
    EXPECT_EQ(One.Text, Again.Text) << NP.Name;
    EXPECT_EQ(One.Diags, Again.Diags) << NP.Name;
    EXPECT_EQ(One.Text, Eight.Text) << NP.Name;
    EXPECT_EQ(One.Diags, Eight.Diags) << NP.Name;
    EXPECT_EQ(One.UseFused, Eight.UseFused) << NP.Name;
    EXPECT_EQ(One.FusedMs, Eight.FusedMs) << NP.Name;
    EXPECT_EQ(One.UnfusedMs, Eight.UnfusedMs) << NP.Name;
  }
}

//===----------------------------------------------------------------------===//
// SearchStats surface: fusion counters and the scalar-fallback counter
//===----------------------------------------------------------------------===//

TEST(SearchStatsSurfaceTest, ReportCarriesFusionAndFallbackCounters) {
  ProgSnapshot S = compileSrc(blas2(128));
  std::string Rep = searchStatsReport(S.Search);
  EXPECT_NE(Rep.find("scalar fallbacks:"), std::string::npos) << Rep;
  EXPECT_NE(Rep.find("fusion: 1 pair(s) analyzed, 1 legal, 0 rejected, "
                     "1 win(s)"),
            std::string::npos)
      << Rep;
  // Every kernel in the corpus is bytecode-eligible, so the vector engine
  // never fell back to the scalar walk.
  EXPECT_EQ(S.Search.ScalarFallbacks, 0u);
}

TEST(SearchStatsSurfaceTest, SimulatorCountsVectorIneligibleRuns) {
  // A kernel the bytecode compiler refuses (rank-mismatched access built
  // directly, unreachable through the parser): a vector-backend run must
  // record the fallback to the scalar walk, which then reports the
  // malformed access as a run error.
  Module M;
  KernelBuilder B(M, "bad");
  B.arrayParam("a", Type::floatTy(), {16, 16});
  B.arrayParam("c", Type::floatTy(), {16}, /*IsOutput=*/true);
  B.assign(B.at("c", {B.idx()}), B.at("a", {B.idx()}));
  KernelFunction *K = B.finish(16, 1, 16, 1);

  Simulator Sim(DeviceSpec::gtx280());
  Sim.setInterpBackend(InterpBackend::Vector);
  BufferSet Buffers;
  fillFuzzInputs(*K, Buffers, 7u);
  DiagnosticsEngine Diags;
  EXPECT_FALSE(Sim.runFunctional(*K, Buffers, Diags));
  EXPECT_EQ(Sim.scalarFallbacks(), 1u);

  // The same malformed kernel under the scalar backend is not a
  // *fallback* — nothing was demoted.
  Simulator Scalar(DeviceSpec::gtx280());
  Scalar.setInterpBackend(InterpBackend::Scalar);
  DiagnosticsEngine D2;
  BufferSet B2;
  fillFuzzInputs(*K, B2, 7u);
  EXPECT_FALSE(Scalar.runFunctional(*K, B2, D2));
  EXPECT_EQ(Scalar.scalarFallbacks(), 0u);
}
