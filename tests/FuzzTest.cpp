//===-- tests/FuzzTest.cpp - differential fuzzing subsystem tests ---------===//
//
// Coverage for the gpuc-fuzz stack:
//  * seed replay is byte-identical (golden sources pinned here);
//  * every generated kernel round-trips Printer -> Parser as a fixed point;
//  * the differential oracle passes on the current compiler;
//  * a deliberately broken transform stage is blamed on exactly that stage;
//  * injected faults get the right verdict from all three oracles:
//    dropped barriers are Races, out-of-bounds stores RunErrors, each
//    with a pinned count and stage, and a faulting naive kernel is one
//    RunError at stage "input" (StaticUnsound and InterpDivergence need
//    a broken analysis or engine, so no test triggers them);
//  * a kernel repeated among a case's variants is checked every time, run
//    once while it passes and every time while it fails;
//  * the reducer shrinks an injected-bug repro to a small dialect program;
//  * the fuzzing loop gives each kernel to its lowest seed at any lane
//    count;
//  * gpucc --validate's mismatch count treats a one-sided NaN as a
//    mismatch.
//
//===----------------------------------------------------------------------===//

#include "ast/Hash.h"
#include "ast/Printer.h"
#include "ast/Walk.h"
#include "core/Compiler.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/KernelGen.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

using namespace gpuc;

namespace {

KernelFunction *parseOk(Module &M, const std::string &Source) {
  DiagnosticsEngine Diags;
  Parser P(Source, Diags);
  KernelFunction *K = P.parseKernel(M);
  EXPECT_NE(K, nullptr) << Diags.str();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return K;
}

std::vector<KernelFunction *> parseProgramOk(Module &M,
                                             const std::string &Source) {
  DiagnosticsEngine Diags;
  Parser P(Source, Diags);
  std::vector<KernelFunction *> Stages = P.parseProgram(M);
  EXPECT_FALSE(Stages.empty()) << Diags.str();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Stages;
}

/// Fault injection for attribution tests: after the named stage runs,
/// every plain store into an array becomes an accumulating store, which
/// adds the (nonzero) preexisting buffer contents into the result.
StageHook breakAfter(std::string Target) {
  return [Target](const char *Stage, KernelFunction &K, bool) {
    if (Target != Stage)
      return;
    forEachStmt(K.body(), [](Stmt *S) {
      if (auto *A = dyn_cast<AssignStmt>(S))
        if (A->op() == AssignOp::Assign && isa<ArrayRef>(A->lhs()))
          A->setOp(AssignOp::AddAssign);
    });
  };
}

/// Fault injection for verdict tests: after the named stage, every
/// __syncthreads is dropped, so shared-memory staging races.
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

/// Fault injection for verdict tests: after the named stage, every store
/// into a global array moves 1 << 20 past its first index, so the run
/// faults. The new index nodes live in \p Owner, which must outlive the
/// oracle run.
StageHook storesOutOfBoundsAfter(std::string Target, Module &Owner) {
  return [Target, &Owner](const char *Stage, KernelFunction &K, bool) {
    if (Target != Stage)
      return;
    forEachStmt(K.body(), [&](Stmt *S) {
      auto *A = dyn_cast<AssignStmt>(S);
      auto *Ref = A ? dyn_cast<ArrayRef>(A->lhs()) : nullptr;
      if (Ref && K.findParam(Ref->base()))
        Ref->setIndex(0, Owner.context().addConst(Ref->index(0), 1 << 20));
    });
  };
}

/// Counts failures of \p Kind whose stage is \p Stage.
int countFailures(const OracleResult &R, OracleFailure::Kind Kind,
                  const std::string &Stage) {
  int N = 0;
  for (const OracleFailure &F : R.Failures)
    N += F.FailKind == Kind && F.Stage == Stage;
  return N;
}

/// A naive kernel whose every store is provably out of bounds.
const char *OobSource = "#pragma gpuc output(c)\n"
                        "#pragma gpuc domain(64,1)\n"
                        "__global__ void oob(float a[64], float c[64]) {\n"
                        "  c[(idx+64)] = a[idx];\n"
                        "}\n";

/// An mm-shaped kernel whose compilation announces every pipeline stage.
const char *MmSource = "#pragma gpuc output(c)\n"
                       "#pragma gpuc bind(w=48)\n"
                       "#pragma gpuc domain(48,48)\n"
                       "__global__ void k12(float a[48][48], float b[48][48],"
                       " float c[48][48], int w) {\n"
                       "  float sum = 0.0f;\n"
                       "  for (int i = 0; i < w; i = i + 1) {\n"
                       "    sum += (a[idy][i]+b[i][idx]);\n"
                       "  }\n"
                       "  c[idy][idx] = (sum+sum);\n"
                       "}\n";

} // namespace

//===----------------------------------------------------------------------===//
// Generator replay and round-trip
//===----------------------------------------------------------------------===//

TEST(KernelGenTest, GoldenReplaySeed3) {
  // Pinned bytes: regeneration must be identical across runs and builds
  // (the generator draws only raw mt19937 values, never distributions).
  const char *Want = "#pragma gpuc output(c)\n"
                     "#pragma gpuc domain(144,1)\n"
                     "__global__ void k3(float a[288], float x[144],"
                     " float c[288]) {\n"
                     "  c[(2*idx)] = fmaxf(a[(2*idx)], x[idx]);\n"
                     "  c[((2*idx)+1)] = a[((2*idx)+1)];\n"
                     "}\n";
  KernelGen Gen(3);
  GeneratedKernel GK = Gen.generate();
  EXPECT_EQ(GK.Source, Want);
  EXPECT_EQ(GK.Shape, "interleave");
}

TEST(KernelGenTest, GoldenReplaySeed12) {
  KernelGen Gen(12);
  GeneratedKernel GK = Gen.generate();
  EXPECT_EQ(GK.Source, MmSource);
  EXPECT_EQ(GK.Shape, "mmlike");
}

TEST(KernelGenTest, GenerateIsIdempotentAndInstanceIndependent) {
  for (unsigned Seed : {0u, 7u, 19u, 101u}) {
    KernelGen A(Seed);
    GeneratedKernel First = A.generate();
    GeneratedKernel Again = A.generate(); // same instance, re-seeded
    KernelGen B(Seed);
    GeneratedKernel Fresh = B.generate(); // independent instance
    EXPECT_EQ(First.Source, Again.Source) << "seed " << Seed;
    EXPECT_EQ(First.Source, Fresh.Source) << "seed " << Seed;
    EXPECT_EQ(First.StructureHash, Fresh.StructureHash) << "seed " << Seed;
  }
}

TEST(KernelGenTest, PrinterParserRoundTripSweep) {
  for (unsigned Seed = 0; Seed < 60; ++Seed) {
    KernelGen Gen(Seed);
    GeneratedKernel GK = Gen.generate();
    Module M;
    KernelFunction *K = parseOk(M, GK.Source);
    ASSERT_NE(K, nullptr) << "seed " << Seed << "\n" << GK.Source;
    // Re-printing the parse is a fixed point, and the parsed structure
    // hashes identically to what the generator built.
    EXPECT_EQ(printNaiveKernel(*K), GK.Source) << "seed " << Seed;
    EXPECT_EQ(hashKernel(*K), GK.StructureHash) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Pipeline (chain-template) generation
//===----------------------------------------------------------------------===//

TEST(PipelineGenTest, GoldenReplaySeed3) {
  // Pinned bytes for the must-reject shape: the consumer folds the
  // intermediate through a loop-variable index.
  const char *Want =
      "#pragma gpuc pipeline(k3a -> k3b)\n"
      "#pragma gpuc output(t0)\n"
      "#pragma gpuc domain(112,1)\n"
      "__global__ void k3a(float a[112], float t0[112]) {\n"
      "  t0[idx] = fmaxf((a[idx]+a[idx]), fminf(a[idx], a[idx]));\n"
      "}\n"
      "\n"
      "#pragma gpuc output(c)\n"
      "#pragma gpuc domain(112,1)\n"
      "__global__ void k3b(float t0[112], float c[112]) {\n"
      "  float acc = 0.0f;\n"
      "  for (int k = 0; k < 9; k = k + 1) {\n"
      "    acc += t0[k];\n"
      "  }\n"
      "  c[idx] = (acc+acc);\n"
      "}\n";
  KernelGen Gen(3);
  GeneratedPipeline GP = Gen.generatePipeline();
  EXPECT_EQ(GP.Source, Want);
  EXPECT_EQ(GP.Shape, "loop_consumer");
  EXPECT_EQ(GP.NumKernels, 2);
  EXPECT_FALSE(GP.ExpectFusable);
}

TEST(PipelineGenTest, GoldenReplaySeed17) {
  // Pinned bytes for the BLAS-2 shape (register-fusable mv chain).
  const char *Want =
      "#pragma gpuc pipeline(k17a -> k17b)\n"
      "#pragma gpuc output(t0)\n"
      "#pragma gpuc bind(n=64)\n"
      "#pragma gpuc domain(64,1)\n"
      "__global__ void k17a(float a[64][64], float x[64], float t0[64],"
      " int n) {\n"
      "  float sum = 0.0f;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    sum += (a[idx][i]*x[i]);\n"
      "  }\n"
      "  t0[idx] = (sum+sum);\n"
      "}\n"
      "\n"
      "#pragma gpuc output(c)\n"
      "#pragma gpuc domain(64,1)\n"
      "__global__ void k17b(float t0[64], float b[64], float c[64]) {\n"
      "  c[idx] = t0[idx];\n"
      "}\n";
  KernelGen Gen(17);
  GeneratedPipeline GP = Gen.generatePipeline();
  EXPECT_EQ(GP.Source, Want);
  EXPECT_EQ(GP.Shape, "mv_chain");
  EXPECT_TRUE(GP.ExpectFusable);
}

TEST(PipelineGenTest, GenerateIsIdempotentAndInstanceIndependent) {
  for (unsigned Seed : {0u, 3u, 9u, 17u, 23u}) {
    KernelGen A(Seed);
    GeneratedPipeline First = A.generatePipeline();
    GeneratedPipeline Again = A.generatePipeline();
    KernelGen B(Seed);
    GeneratedPipeline Fresh = B.generatePipeline();
    EXPECT_EQ(First.Source, Again.Source) << "seed " << Seed;
    EXPECT_EQ(First.Source, Fresh.Source) << "seed " << Seed;
    EXPECT_EQ(First.StructureHash, Fresh.StructureHash) << "seed " << Seed;
    // generate() and generatePipeline() restart the engine, so calling
    // one must not perturb the other.
    GeneratedKernel Single = B.generate();
    EXPECT_EQ(B.generatePipeline().Source, First.Source) << "seed " << Seed;
    EXPECT_EQ(B.generate().Source, Single.Source) << "seed " << Seed;
  }
}

TEST(PipelineGenTest, PrinterParserRoundTripSweep) {
  for (unsigned Seed = 0; Seed < 40; ++Seed) {
    KernelGen Gen(Seed);
    GeneratedPipeline GP = Gen.generatePipeline();
    Module M;
    std::vector<KernelFunction *> Stages = parseProgramOk(M, GP.Source);
    ASSERT_EQ(static_cast<int>(Stages.size()), GP.NumKernels)
        << "seed " << Seed << "\n" << GP.Source;
    // Re-printing the parsed program is a fixed point, and the parsed
    // stages hash-fold to the generator's StructureHash (the generator
    // canonicalizes its launches to the parser's defaults first).
    std::vector<const KernelFunction *> CStages(Stages.begin(),
                                                Stages.end());
    EXPECT_EQ(printNaiveProgram(CStages), GP.Source) << "seed " << Seed;
    uint64_t H = hashCombine(0x70697065, Stages.size());
    for (const KernelFunction *K : Stages)
      H = hashCombine(H, hashKernel(*K));
    EXPECT_EQ(H, GP.StructureHash) << "seed " << Seed;
  }
}

TEST(PipelineGenTest, LegalityMatchesTemplateExpectation) {
  // Every chain template is fusable (or not) by construction; the
  // legality analysis must agree on each one the generator emits.
  for (unsigned Seed = 0; Seed < 30; ++Seed) {
    KernelGen Gen(Seed);
    GeneratedPipeline GP = Gen.generatePipeline();
    Module M;
    std::vector<KernelFunction *> Stages = parseProgramOk(M, GP.Source);
    std::vector<const KernelFunction *> CStages(Stages.begin(),
                                                Stages.end());
    DiagnosticsEngine Diags;
    GpuCompiler GC(M, Diags);
    ProgramCompileOutput Out = GC.compileProgram(CStages);
    EXPECT_FALSE(Diags.hasErrors()) << "seed " << Seed << ": " << Diags.str();
    EXPECT_EQ(Out.FusionLegal, GP.ExpectFusable)
        << "seed " << Seed << " (" << GP.Shape
        << "): " << Out.FusionReason << "\n"
        << GP.Source;
    if (!GP.ExpectFusable) {
      EXPECT_FALSE(Out.UseFused) << "seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(OracleTest, UlpDistanceBasics) {
  EXPECT_EQ(ulpDistance(1.0f, 1.0f), 0);
  EXPECT_EQ(ulpDistance(-0.0f, 0.0f), 0);
  EXPECT_EQ(ulpDistance(1.0f, std::nextafterf(1.0f, 2.0f)), 1);
  EXPECT_EQ(ulpDistance(-1.0f, std::nextafterf(-1.0f, -2.0f)), 1);
  // Straddling zero: distance is the sum of both sides' offsets.
  float Neg = std::nextafterf(0.0f, -1.0f);
  float Pos = std::nextafterf(0.0f, 1.0f);
  EXPECT_EQ(ulpDistance(Neg, Pos), 2);
  EXPECT_GT(ulpDistance(1.0f, 2.0f), 1000);
}

TEST(OracleTest, FillFuzzInputsIsSeedDeterministic) {
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  BufferSet A, B, C;
  fillFuzzInputs(*K, A, 7u);
  fillFuzzInputs(*K, B, 7u);
  fillFuzzInputs(*K, C, 8u);
  EXPECT_EQ(A.data("a"), B.data("a"));
  EXPECT_EQ(A.data("c"), B.data("c"));
  EXPECT_NE(A.data("a"), C.data("a"));
  for (float X : A.data("a")) {
    EXPECT_GE(X, -0.5f);
    EXPECT_LT(X, 0.5f);
  }
}

TEST(OracleTest, PassesOnGeneratedKernels) {
  for (unsigned Seed : {0u, 3u, 7u, 12u, 31u}) {
    KernelGen Gen(Seed);
    GeneratedKernel GK = Gen.generate();
    OracleOptions Opt;
    OracleResult R;
    std::string Errs;
    ASSERT_TRUE(checkKernelSource(GK.Source, Opt, R, Errs))
        << "seed " << Seed << "\n" << Errs;
    EXPECT_TRUE(R.Passed) << "seed " << Seed << ": "
                          << (R.Failures.empty()
                                  ? ""
                                  : R.Failures.front().Detail);
    EXPECT_GE(R.VariantsChecked, 1) << "seed " << Seed;
  }
}

TEST(OracleTest, DataMovementKernelsCompareExactly) {
  // Pure copy: no float arithmetic, so the oracle requires bit equality.
  const char *Copy = "#pragma gpuc output(c)\n"
                     "#pragma gpuc domain(64,1)\n"
                     "__global__ void cp(float a[64], float c[64]) {\n"
                     "  c[idx] = a[idx];\n"
                     "}\n";
  OracleOptions Opt;
  OracleResult R;
  std::string Errs;
  ASSERT_TRUE(checkKernelSource(Copy, Opt, R, Errs)) << Errs;
  EXPECT_TRUE(R.Passed);
  EXPECT_TRUE(R.ExactCompare);

  Module M;
  KernelFunction *Mm = parseOk(M, MmSource);
  EXPECT_TRUE(kernelHasFloatArith(*Mm));
}

TEST(OracleTest, AnnouncedStagesFollowPipelineOrder) {
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  std::vector<std::string> Announced;
  CompileOptions Opt;
  Opt.Jobs = 1;
  Opt.HookFactory = [&](DiagnosticsEngine &) -> StageHook {
    return [&](const char *Stage, KernelFunction &, bool) {
      Announced.push_back(Stage);
    };
  };
  DiagnosticsEngine Diags;
  GpuCompiler GC(M, Diags);
  ASSERT_NE(GC.compileVariant(*K, Opt, 1, 1), nullptr);

  // The announcements are a subsequence of the canonical stage list.
  const std::vector<const char *> &Names = pipelineStageNames();
  size_t At = 0;
  for (const std::string &S : Announced) {
    while (At < Names.size() && S != Names[At])
      ++At;
    ASSERT_LT(At, Names.size()) << "unknown or out-of-order stage " << S;
  }
  ASSERT_FALSE(Announced.empty());
  EXPECT_EQ(Announced.front(), "input");
  EXPECT_EQ(Announced.back(), "final");
}

TEST(OracleTest, PipelinePassesOnGeneratedChains) {
  // One seed per chain template (see the shape map the sweep pins):
  // 0 chain2d, 1 mv_chain, 3 loop_consumer, 5 chain1d, 9 stencil_chain.
  for (unsigned Seed : {0u, 1u, 3u, 5u, 9u}) {
    KernelGen Gen(Seed);
    GeneratedPipeline GP = Gen.generatePipeline();
    OracleOptions Opt;
    OracleResult R;
    std::string Errs;
    ASSERT_TRUE(checkPipelineSource(GP.Source, Opt, R, Errs))
        << "seed " << Seed << "\n" << Errs;
    EXPECT_TRUE(R.Passed) << "seed " << Seed << " (" << GP.Shape << "): "
                          << (R.Failures.empty()
                                  ? ""
                                  : R.Failures.front().Detail);
    EXPECT_GE(R.VariantsChecked, 1) << "seed " << Seed;
  }
}

TEST(OracleTest, PipelineCatchesABrokenFusedKernel) {
  // Corrupt only the fused kernel (its name carries the "_fused" suffix)
  // right at pipeline input: the bit-exact fused-vs-chain comparison must
  // report a mismatch while the unfused chain stays the trusted side.
  KernelGen Gen(17); // mv_chain, register-fusable
  GeneratedPipeline GP = Gen.generatePipeline();
  OracleOptions Opt;
  Opt.Inject = [](const char *Stage, KernelFunction &K, bool) {
    if (std::string(Stage) != "input" ||
        K.name().find("_fused") == std::string::npos)
      return;
    forEachStmt(K.body(), [](Stmt *S) {
      if (auto *A = dyn_cast<AssignStmt>(S))
        if (A->op() == AssignOp::Assign && isa<ArrayRef>(A->lhs()))
          A->setOp(AssignOp::AddAssign);
    });
  };
  OracleResult R;
  std::string Errs;
  ASSERT_TRUE(checkPipelineSource(GP.Source, Opt, R, Errs)) << Errs;
  ASSERT_FALSE(R.Passed) << "corrupted fused kernel was not detected";
  bool SawFusedFailure = false;
  for (const OracleFailure &F : R.Failures)
    SawFusedFailure |= F.Variant.find("_fused") != std::string::npos;
  EXPECT_TRUE(SawFusedFailure)
      << "failure not attributed to a fused variant: "
      << R.Failures.front().Variant;
}

//===----------------------------------------------------------------------===//
// Per-stage failure attribution
//===----------------------------------------------------------------------===//

class StageAttribution : public ::testing::TestWithParam<const char *> {};

TEST_P(StageAttribution, BlamesTheBrokenStage) {
  const char *Target = GetParam();
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  OracleOptions Opt;
  Opt.Inject = breakAfter(Target);
  OracleResult R = runOracle(M, *K, Opt);
  ASSERT_FALSE(R.Passed) << "injected fault at '" << Target
                         << "' was not detected";
  for (const OracleFailure &F : R.Failures) {
    EXPECT_EQ(F.FailKind, OracleFailure::Kind::Mismatch)
        << failureKindName(F.FailKind) << ": " << F.Detail;
    EXPECT_EQ(F.Stage, Target) << "variant " << F.Variant;
  }
}

INSTANTIATE_TEST_SUITE_P(Stages, StageAttribution,
                         ::testing::Values("vectorize", "coalesce", "merge",
                                           "prefetch"));

//===----------------------------------------------------------------------===//
// Failure verdicts: Race and RunError, on variants and on the naive side
//===----------------------------------------------------------------------===//

TEST(OracleVerdicts, DroppedBarriersAreRacesBlamedOnTheirStage) {
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  OracleOptions Opt;
  Opt.Inject = dropSyncsAfter("coalesce");
  OracleResult R = runOracle(M, *K, Opt);
  EXPECT_FALSE(R.Passed);
  EXPECT_EQ(R.VariantsChecked, 80);
  EXPECT_EQ(R.Failures.size(), 80u);
  EXPECT_EQ(countFailures(R, OracleFailure::Kind::Race, "coalesce"), 80);
}

TEST(OracleVerdicts, OutOfBoundsStoresAreRunErrorsBlamedOnTheirStage) {
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  OracleOptions Opt;
  Opt.Inject = storesOutOfBoundsAfter("merge", M);
  OracleResult R = runOracle(M, *K, Opt);
  EXPECT_FALSE(R.Passed);
  EXPECT_EQ(R.VariantsChecked, 80);
  EXPECT_EQ(R.Failures.size(), 80u);
  EXPECT_EQ(countFailures(R, OracleFailure::Kind::RunError, "merge"), 80);
}

TEST(OracleVerdicts, LayoutOracleReportsRacesAndRunErrorsPerPoint) {
  struct Case {
    const char *Name;
    OracleFailure::Kind Kind;
  };
  for (const Case &C : {Case{"race", OracleFailure::Kind::Race},
                        Case{"run-error", OracleFailure::Kind::RunError}}) {
    Module M;
    KernelFunction *K = parseOk(M, MmSource);
    OracleOptions Opt;
    Opt.Inject = C.Kind == OracleFailure::Kind::Race
                     ? dropSyncsAfter("coalesce")
                     : storesOutOfBoundsAfter("merge", M);
    OracleResult R = runLayoutOracle(M, *K, Opt);
    EXPECT_FALSE(R.Passed) << C.Name;
    // Tier one (the three pure remaps on the naive kernel) never enters
    // the pipeline and passes; the four compiled family points fail.
    EXPECT_EQ(R.VariantsChecked, 7) << C.Name;
    EXPECT_EQ(R.Failures.size(), 4u) << C.Name;
    for (const OracleFailure &F : R.Failures) {
      EXPECT_EQ(F.FailKind, C.Kind) << C.Name << ": " << F.Detail;
      EXPECT_EQ(F.Stage.rfind("layout:", 0), 0u) << C.Name << ": " << F.Stage;
      EXPECT_EQ(F.Variant.find("_remap_"), std::string::npos)
          << C.Name << ": " << F.Variant;
    }
  }
}

TEST(OracleVerdicts, PipelineOracleReportsRunErrorsOnBothSearchSides) {
  KernelGen Gen(17); // mv_chain, register-fusable
  GeneratedPipeline GP = Gen.generatePipeline();
  Module Owner;
  OracleOptions Opt;
  Opt.Inject = storesOutOfBoundsAfter("merge", Owner);
  OracleResult R;
  std::string Errs;
  ASSERT_TRUE(checkPipelineSource(GP.Source, Opt, R, Errs)) << Errs;
  EXPECT_FALSE(R.Passed);
  EXPECT_EQ(R.VariantsChecked, 14);
  EXPECT_EQ(R.Failures.size(), 13u);
  EXPECT_EQ(countFailures(R, OracleFailure::Kind::RunError, "fused-search"),
            12);
  EXPECT_EQ(countFailures(R, OracleFailure::Kind::RunError, "stage-search"),
            1);
  for (const OracleFailure &F : R.Failures) {
    if (F.Stage == "stage-search") {
      EXPECT_EQ(F.Variant, "unfused-best");
    }
  }
}

TEST(OracleVerdicts, RepeatedVariantsKeepTheirCountsAndVerdicts) {
  // Seed 3's interleave kernel launches a grid too small for the merge
  // factors to change it: its eight search variants are two kernels, four
  // merge-factor builds that compile alike and their four shift copies.
  // Every copy counts as a checked variant, and a broken stage fails every
  // copy, each blamed on the stage.
  const std::string Source = KernelGen(3).generate().Source;
  {
    Module M;
    KernelFunction *K = parseOk(M, Source);
    ASSERT_NE(K, nullptr);
    CompileOptions CO;
    CO.Jobs = 1;
    DiagnosticsEngine Diags;
    GpuCompiler GC(M, Diags);
    CompileOutput Out = GC.compile(*K, CO);
    std::set<uint64_t> Distinct;
    int Variants = 0;
    for (const VariantResult &V : Out.Variants)
      if (V.Kernel) {
        ++Variants;
        Distinct.insert(hashKernel(*V.Kernel));
      }
    EXPECT_EQ(Variants, 8);
    EXPECT_EQ(Distinct.size(), 2u);
  }

  OracleOptions Opt;
  OracleResult R;
  std::string Errs;
  ASSERT_TRUE(checkKernelSource(Source, Opt, R, Errs)) << Errs;
  EXPECT_TRUE(R.Passed) << (R.Failures.empty() ? ""
                                               : R.Failures.front().Detail);
  EXPECT_EQ(R.VariantsChecked, 8);
  EXPECT_EQ(R.VariantsRun, 2);

  Opt.Inject = breakAfter("merge");
  ASSERT_TRUE(checkKernelSource(Source, Opt, R, Errs)) << Errs;
  EXPECT_FALSE(R.Passed);
  EXPECT_EQ(R.VariantsChecked, 8);
  EXPECT_EQ(R.VariantsRun, 8);
  EXPECT_EQ(R.Failures.size(), 8u);
  EXPECT_EQ(countFailures(R, OracleFailure::Kind::Mismatch, "merge"), 8);
}

TEST(OracleVerdicts, FaultingNaiveKernelIsOneInputRunError) {
  auto ExpectNaiveRunError = [](const OracleResult &R, const char *What) {
    EXPECT_FALSE(R.Passed) << What;
    EXPECT_EQ(R.VariantsChecked, 0) << What;
    ASSERT_EQ(R.Failures.size(), 1u) << What;
    const OracleFailure &F = R.Failures.front();
    EXPECT_EQ(F.FailKind, OracleFailure::Kind::RunError)
        << What << ": " << failureKindName(F.FailKind) << " " << F.Detail;
    EXPECT_EQ(F.Variant, "naive") << What;
    EXPECT_EQ(F.Stage, "input") << What;
  };
  for (bool CheckStatic : {false, true}) {
    OracleOptions Opt;
    Opt.CheckStatic = CheckStatic;
    OracleResult R;
    std::string Errs;
    ASSERT_TRUE(checkKernelSource(OobSource, Opt, R, Errs)) << Errs;
    ExpectNaiveRunError(R, CheckStatic ? "runOracle --check-static"
                                       : "runOracle");
  }
  OracleOptions Opt;
  OracleResult R;
  std::string Errs;
  ASSERT_TRUE(checkLayoutSource(OobSource, Opt, R, Errs)) << Errs;
  ExpectNaiveRunError(R, "runLayoutOracle");
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

TEST(ReducerTest, ShrinksInjectedBugReproToSmallProgram) {
  // Larger generated kernel + a broken merge stage: the minimized repro
  // must stay a failing, well-formed dialect program and get small.
  KernelGen Gen(12);
  GeneratedKernel GK = Gen.generate();
  OracleOptions Opt;
  Opt.Inject = breakAfter("merge");

  FailurePredicate StillFails = [&](const std::string &Cand) {
    OracleResult R;
    std::string Errs;
    if (!checkKernelSource(Cand, Opt, R, Errs))
      return false;
    for (const OracleFailure &F : R.Failures)
      if (F.FailKind == OracleFailure::Kind::Mismatch && F.Stage == "merge")
        return true;
    return false;
  };
  ASSERT_TRUE(StillFails(GK.Source));

  ReduceStats Stats;
  std::string Reduced = reduceKernelSource(GK.Source, StillFails, &Stats);
  EXPECT_TRUE(StillFails(Reduced));
  EXPECT_LT(Reduced.size(), GK.Source.size());
  EXPECT_LE(countCodeLines(Reduced), 15);
  EXPECT_GT(Stats.Accepted, 0);
  // And the repro replays through the parser.
  Module M;
  EXPECT_NE(parseOk(M, Reduced), nullptr) << Reduced;
}

TEST(ReducerTest, KeepsSourceWhenNothingCanBeRemoved) {
  const char *Tiny = "#pragma gpuc output(c)\n"
                     "#pragma gpuc domain(64,1)\n"
                     "__global__ void t(float c[64]) {\n"
                     "  c[idx] = 1.0f;\n"
                     "}\n";
  // Predicate accepts everything that parses: the reducer may simplify,
  // but a single-store kernel has nothing left to delete.
  FailurePredicate Any = [](const std::string &) { return true; };
  std::string Reduced = reduceKernelSource(Tiny, Any);
  Module M;
  EXPECT_NE(parseOk(M, Reduced), nullptr);
  EXPECT_LE(Reduced.size(), std::string(Tiny).size());
}

//===----------------------------------------------------------------------===//
// Fuzzing loop
//===----------------------------------------------------------------------===//

TEST(FuzzLoopTest, SmokeRunIsCleanAndJobsInvariant) {
  FuzzOptions Opt;
  Opt.FirstSeed = 0;
  Opt.NumSeeds = 12;
  Opt.Jobs = 2;
  FuzzSummary Par = runFuzz(Opt);
  EXPECT_EQ(Par.Cases, 12);
  EXPECT_EQ(Par.Passed, 12);
  EXPECT_EQ(Par.Duplicates, 0);
  EXPECT_EQ(Par.Failed, 0) << (Par.Failures.empty()
                                   ? ""
                                   : Par.Failures.front().Failure.Detail);
  EXPECT_EQ(Par.VariantsChecked, 216);
  EXPECT_EQ(Par.VariantsRun, 43);

  Opt.Jobs = 1;
  FuzzSummary Ser = runFuzz(Opt);
  EXPECT_EQ(Par.Passed, Ser.Passed);
  EXPECT_EQ(Par.Duplicates, Ser.Duplicates);
  EXPECT_EQ(Par.VariantsChecked, Ser.VariantsChecked);
  EXPECT_EQ(Par.VariantsRun, Ser.VariantsRun);
  EXPECT_EQ(Par.ShapeCounts, Ser.ShapeCounts);
}

TEST(FuzzLoopTest, PipelineSmokeRunIsCleanAndJobsInvariant) {
  FuzzOptions Opt;
  Opt.Pipeline = true;
  Opt.FirstSeed = 0;
  Opt.NumSeeds = 10;
  Opt.Jobs = 2;
  FuzzSummary Par = runFuzz(Opt);
  EXPECT_EQ(Par.Cases, 10);
  EXPECT_EQ(Par.Passed, 10);
  EXPECT_EQ(Par.Duplicates, 0);
  EXPECT_EQ(Par.Failed, 0) << (Par.Failures.empty()
                                   ? ""
                                   : Par.Failures.front().Failure.Detail);
  EXPECT_EQ(Par.VariantsChecked, 117);
  EXPECT_EQ(Par.VariantsRun, 55);

  Opt.Jobs = 1;
  FuzzSummary Ser = runFuzz(Opt);
  EXPECT_EQ(Par.Passed, Ser.Passed);
  EXPECT_EQ(Par.Duplicates, Ser.Duplicates);
  EXPECT_EQ(Par.VariantsChecked, Ser.VariantsChecked);
  EXPECT_EQ(Par.VariantsRun, Ser.VariantsRun);
  EXPECT_EQ(Par.ShapeCounts, Ser.ShapeCounts);
}

TEST(FuzzLoopTest, LayoutSmokeRunIsCleanAndJobsInvariant) {
  FuzzOptions Opt;
  Opt.Layout = true;
  Opt.FirstSeed = 0;
  Opt.NumSeeds = 10;
  Opt.Jobs = 2;
  FuzzSummary Par = runFuzz(Opt);
  EXPECT_EQ(Par.Cases, 10);
  EXPECT_EQ(Par.Passed, 10);
  EXPECT_EQ(Par.Duplicates, 0);
  EXPECT_EQ(Par.Failed, 0) << (Par.Failures.empty()
                                   ? ""
                                   : Par.Failures.front().Failure.Detail);
  EXPECT_EQ(Par.VariantsChecked, 72);
  EXPECT_EQ(Par.VariantsRun, 66);

  Opt.Jobs = 1;
  FuzzSummary Ser = runFuzz(Opt);
  EXPECT_EQ(Par.Passed, Ser.Passed);
  EXPECT_EQ(Par.Duplicates, Ser.Duplicates);
  EXPECT_EQ(Par.VariantsChecked, Ser.VariantsChecked);
  EXPECT_EQ(Par.VariantsRun, Ser.VariantsRun);
  EXPECT_EQ(Par.ShapeCounts, Ser.ShapeCounts);
}

TEST(FuzzLoopTest, DuplicatesAreDecidedInSeedOrder) {
  // Seeds 0-124 generate ten kernels a lower seed already generated. The
  // lowest seed of each kernel owns it, and with it the oracle's inputs,
  // at any lane count: a progress stream at eight lanes reports exactly
  // those seeds ok.
  std::set<unsigned> Owners;
  std::set<uint64_t> Seen;
  for (unsigned S = 0; S < 125; ++S)
    if (Seen.insert(KernelGen(S).generate().StructureHash).second)
      Owners.insert(S);

  FuzzOptions Opt;
  Opt.FirstSeed = 0;
  Opt.NumSeeds = 125;
  Opt.Jobs = 8;
  Opt.Oracle.CheckInterp = false;
  std::ostringstream Progress;
  const FuzzSummary Sum = runFuzz(Opt, &Progress);
  EXPECT_EQ(Sum.Duplicates, 10);
  EXPECT_EQ(Sum.Failed, 0);

  std::set<unsigned> Reported;
  std::istringstream Lines(Progress.str());
  for (std::string Line; std::getline(Lines, Line);)
    if (Line.rfind("seed ", 0) == 0 && Line.find(": ok (") != std::string::npos)
      Reported.insert(static_cast<unsigned>(std::stoul(Line.substr(5))));
  EXPECT_EQ(Reported, Owners) << Progress.str();
}

TEST(LayoutOracleTest, PassesOnMmShapedKernelWithFullFamily) {
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  ASSERT_NE(K, nullptr);
  OracleOptions Opt;
  OracleResult R = runLayoutOracle(M, *K, Opt);
  EXPECT_TRUE(R.Passed) << (R.Failures.empty()
                                ? ""
                                : R.Failures.front().Stage + ": " +
                                      R.Failures.front().Detail);
  // The 48x48 domain launches 16x1 blocks on a 3x48 grid — 2-D but not
  // square, so swap and diagonal are illegal (fully mixed matrices are
  // bijective only on square grids). Tier one checks the three remaining
  // pure remaps (shift, skew-x, skew-y) and tier two compiles the
  // four-point family (identity, skew-x, skew-y, shift).
  EXPECT_EQ(R.VariantsChecked, 7);
}

TEST(LayoutOracleTest, BlamesTheCampingStageForAnInjectedLayoutBug) {
  // Corrupt kernels right after the partition-camping stage: every
  // compiled family point diverges from naive and the failures must all
  // carry a layout:<name> stage tag. The naive-side tier (pure remaps on
  // the uncompiled kernel) never enters the pipeline, so it stays green.
  Module M;
  KernelFunction *K = parseOk(M, MmSource);
  ASSERT_NE(K, nullptr);
  OracleOptions Opt;
  Opt.Inject = breakAfter("partition-camping");
  OracleResult R = runLayoutOracle(M, *K, Opt);
  EXPECT_FALSE(R.Passed);
  ASSERT_FALSE(R.Failures.empty());
  for (const OracleFailure &F : R.Failures) {
    EXPECT_EQ(F.FailKind, OracleFailure::Kind::Mismatch) << F.Detail;
    EXPECT_EQ(F.Stage.rfind("layout:", 0), 0u) << F.Stage;
  }
}

TEST(FuzzLoopTest, FailureRecordJsonIsWellFormed) {
  FuzzCase C;
  C.Seed = 41;
  C.Shape = "map1d";
  C.Source = "line \"one\"\nline two";
  C.Reduced = "small";
  C.Failure.FailKind = OracleFailure::Kind::Mismatch;
  C.Failure.Variant = "k41_opt_b2_t1";
  C.Failure.Stage = "merge";
  C.Failure.Array = "c";
  C.Failure.MismatchCount = 3;
  std::string J = failureRecordJson(C);
  EXPECT_NE(J.find("\"seed\": 41"), std::string::npos);
  EXPECT_NE(J.find("\"kind\": \"mismatch\""), std::string::npos);
  EXPECT_NE(J.find("\"stage\": \"merge\""), std::string::npos);
  EXPECT_NE(J.find("line \\\"one\\\"\\nline two"), std::string::npos);
}
