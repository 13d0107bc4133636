//===-- tests/ExtensionsTest.cpp - folding/verifier/AMD/OpenCL tests ------===//

#include "ast/Builder.h"
#include "ast/Printer.h"
#include "analysis/Dataflow.h"
#include "ast/Verifier.h"
#include "baselines/CpuReference.h"
#include "core/AmdVectorize.h"
#include "core/Compiler.h"
#include "core/ConstantFold.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace gpuc;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

namespace {

std::string foldToString(const std::function<Expr *(KernelBuilder &)> &Make) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  Expr *E = Make(B);
  return printExpr(foldExpr(M.context(), E));
}

} // namespace

TEST(ConstantFold, FoldsLiteralArithmetic) {
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.add(B.i(2), B.mul(B.i(3), B.i(4)));
            }),
            "14");
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.div(B.i(7), B.i(2));
            }),
            "3");
}

TEST(ConstantFold, Identities) {
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.add(B.idx(), B.i(0));
            }),
            "idx");
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.mul(B.idx(), B.i(1));
            }),
            "idx");
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.mul(B.idx(), B.i(0));
            }),
            "0");
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.sub(B.idx(), B.i(0));
            }),
            "idx");
}

TEST(ConstantFold, ReassociatesNestedConstants) {
  // ((idx + 2) + 3) -> (idx + 5); ((2*0)+1)-style staging residue -> 1.
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.add(B.add(B.idx(), B.i(2)), B.i(3));
            }),
            "(idx+5)");
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.add(B.mul(B.i(2), B.i(0)), B.i(1));
            }),
            "1");
}

TEST(ConstantFold, LeavesFloatsAlone) {
  // Float arithmetic is not reassociated (would change rounding).
  EXPECT_EQ(foldToString([](KernelBuilder &B) {
              return B.add(B.f(1.0), B.f(2.0));
            }),
            "(1.0f+2.0f)");
}

TEST(ConstantFold, CleansWholeKernels) {
  Module M;
  DiagnosticsEngine D;
  Parser P("#pragma gpuc output(c)\n"
           "__global__ void k(float c[64]) {\n"
           "  c[idx + 0] = 1.0f * 1;\n"
           "}\n",
           D);
  KernelFunction *K = P.parseKernel(M);
  ASSERT_NE(K, nullptr) << D.str();
  foldKernel(*K, M.context());
  EXPECT_NE(printKernel(*K).find("c[idx]"), std::string::npos)
      << printKernel(*K);
}

TEST(ConstantFold, OptimizedMmHasNoZeroAdditions) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 128, D);
  GpuCompiler GC(M, D);
  KernelFunction *V = GC.compileVariant(*Naive, CompileOptions(), 4, 4);
  std::string T = printKernel(*V);
  EXPECT_EQ(T.find("+0)"), std::string::npos) << T;
  EXPECT_EQ(T.find("(0+"), std::string::npos) << T;
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsEveryCompiledKernel) {
  for (Algo A : table1Algos()) {
    Module M;
    DiagnosticsEngine D;
    long long N = A == Algo::RD ? 256 : 64;
    KernelFunction *K = parseNaive(M, A, N, D);
    ASSERT_NE(K, nullptr);
    EXPECT_TRUE(verifyKernel(*K).empty()) << algoInfo(A).Name;
  }
}

TEST(Verifier, FlagsUndeclaredVariable) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.assign(B.at("c", {B.idx()}), B.v("ghost"));
  KernelFunction *K = B.finish(16, 1, 64, 1);
  auto V = verifyKernel(*K);
  ASSERT_EQ(V.size(), 1u);
  EXPECT_NE(V[0].find("ghost"), std::string::npos);
}

TEST(Verifier, FlagsWrongSubscriptCount) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("a", Type::floatTy(), {8, 8});
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.assign(B.at("c", {B.idx()}), B.at("a", {B.idx()})); // 1 of 2 subscripts
  KernelFunction *K = B.finish(16, 1, 64, 1);
  auto V = verifyKernel(*K);
  ASSERT_FALSE(V.empty());
  EXPECT_NE(V[0].find("subscripted"), std::string::npos);
}

TEST(Verifier, FlagsBarrierUnderIf) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.beginIf(B.lt(B.idx(), B.i(8)));
  B.syncThreads();
  B.assign(B.at("c", {B.idx()}), B.f(0));
  B.endIf();
  KernelFunction *K = B.finish(16, 1, 64, 1);
  EXPECT_TRUE(verifyKernel(*K).empty());
  const DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  EXPECT_EQ(R.Barriers[0].Uniformity, Verdict::Violation);
  EXPECT_NE(R.Barriers[0].Reason.find("barrier"), std::string::npos);
}

TEST(Verifier, FlagsOversizedBlock) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {8192}, true);
  B.assign(B.at("c", {B.idx()}), B.f(0));
  KernelFunction *K = B.finish(2048, 1, 8192, 1);
  auto V = verifyKernel(*K);
  ASSERT_FALSE(V.empty());
  EXPECT_NE(V[0].find("exceeds"), std::string::npos);
}

TEST(Verifier, FlagsStoreToScalarParam) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.scalarParam("n", Type::intTy(), 64);
  B.assign(B.iv("n"), B.i(1));
  B.assign(B.at("c", {B.idx()}), B.f(0));
  KernelFunction *K = B.finish(16, 1, 64, 1);
  auto V = verifyKernel(*K);
  ASSERT_FALSE(V.empty());
  EXPECT_NE(V[0].find("scalar parameter"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// AMD vectorization + HD 5870
//===----------------------------------------------------------------------===//

TEST(AmdVectorize, RecognizesStreamingKernels) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Vv = parseNaive(M, Algo::VV, 1024, D);
  ASSERT_NE(Vv, nullptr);
  EXPECT_TRUE(canAmdVectorize(*Vv));
  KernelFunction *Mm = parseNaive(M, Algo::MM, 64, D);
  EXPECT_FALSE(canAmdVectorize(*Mm)); // loops + 2-D arrays
}

TEST(AmdVectorize, Float4RewriteIsCorrect) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, Algo::VV, 1024, D);
  ASSERT_NE(K, nullptr);
  ASSERT_TRUE(amdVectorize(*K, M.context(), 4));
  EXPECT_EQ(K->workDomainX(), 256);
  EXPECT_TRUE(verifyKernel(*K).empty());

  BufferSet B;
  initInputs(Algo::VV, 1024, B);
  auto Ref = cpuReference(Algo::VV, 1024, B);
  Simulator Sim(DeviceSpec::hd5870());
  ASSERT_TRUE(Sim.runFunctional(*K, B, D)) << D.str();
  EXPECT_EQ(countMismatches(B.data("c"), Ref), 0);
}

TEST(AmdVectorize, AppliedByPipelineOnAmdOnly) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::VV, 4096, D);
  GpuCompiler GC(M, D);
  CompileOptions Amd;
  Amd.Device = DeviceSpec::hd5870();
  KernelFunction *VA = GC.compileVariant(*Naive, Amd, 1, 1);
  EXPECT_NE(printKernel(*VA).find("float4*"), std::string::npos)
      << printKernel(*VA);
  CompileOptions Nv; // GTX 280: limited benefit, skip (Section 3.1)
  KernelFunction *VN = GC.compileVariant(*Naive, Nv, 1, 1);
  EXPECT_EQ(printKernel(*VN).find("float4*"), std::string::npos);
}

TEST(AmdVectorize, Float4FastestOnHd5870) {
  // The point of the AMD rule: float4 streams fastest there, while on
  // GTX 280 it is the slowest class (Section 2).
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::VV, 1 << 20, D);
  GpuCompiler GC(M, D);
  CompileOptions Amd;
  Amd.Device = DeviceSpec::hd5870();
  CompileOutput Out = GC.compile(*Naive, Amd);
  ASSERT_NE(Out.Best, nullptr);
  Simulator Sim(DeviceSpec::hd5870());
  PerfResult RVec = Sim.runPerformance(*Out.Best, D);
  PerfResult RScalar = Sim.runPerformance(*Naive, D);
  ASSERT_TRUE(RVec.Valid && RScalar.Valid);
  EXPECT_LT(RVec.TimeMs, RScalar.TimeMs);
}

//===----------------------------------------------------------------------===//
// OpenCL emission
//===----------------------------------------------------------------------===//

TEST(OpenClPrinter, EmitsOpenClConstructs) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 128, D);
  GpuCompiler GC(M, D);
  KernelFunction *V = GC.compileVariant(*Naive, CompileOptions(), 4, 4);
  std::string T = printKernel(*V, PrintDialect::OpenCL);
  EXPECT_NE(T.find("__kernel void"), std::string::npos) << T;
  EXPECT_NE(T.find("get_local_id(0)"), std::string::npos);
  EXPECT_NE(T.find("get_group_id(0)"), std::string::npos);
  EXPECT_NE(T.find("__local float"), std::string::npos);
  EXPECT_NE(T.find("barrier(CLK_LOCAL_MEM_FENCE)"), std::string::npos);
  EXPECT_NE(T.find("__global float (*a)[128]"), std::string::npos) << T;
  EXPECT_EQ(T.find("__syncthreads"), std::string::npos);
  EXPECT_EQ(T.find("threadIdx"), std::string::npos);
}

TEST(OpenClPrinter, DiagonalRemapUsesGroupIds) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::TP, 2048, D);
  GpuCompiler GC(M, D);
  KernelFunction *V = GC.compileVariant(*Naive, CompileOptions(), 1, 1);
  ASSERT_TRUE(V->launch().Remap.isDiagonal());
  std::string T = printKernel(*V, PrintDialect::OpenCL);
  EXPECT_NE(T.find("get_num_groups(0)"), std::string::npos) << T;
}

//===----------------------------------------------------------------------===//
// Per-site traffic attribution
//===----------------------------------------------------------------------===//

TEST(SiteTraffic, AttributesTrafficToAccesses) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 256, D);
  // G80: the uncoalesced a[idy][i] broadcast costs 16 transactions per
  // half warp, dominating the traffic.
  Simulator Sim(DeviceSpec::gtx8800());
  PerfOptions PO;
  PO.TrackSites = true;
  PerfResult R = Sim.runPerformance(*Naive, D, PO);
  ASSERT_TRUE(R.Valid);
  ASSERT_EQ(R.Sites.size(), 3u); // a load, b load, c store
  EXPECT_NE(R.Sites[0].first.find("a[idy]"), std::string::npos)
      << R.Sites[0].first;
  EXPECT_LT(R.Sites[0].second.CoalescedHalfWarps,
            R.Sites[0].second.HalfWarps);
  // Totals are consistent with the aggregate statistics.
  double Sum = 0;
  for (const auto &[Label, T] : R.Sites)
    Sum += T.BytesMoved;
  EXPECT_NEAR(Sum / R.Stats.bytesMovedTotal(), 1.0, 1e-6);
}

TEST(SiteTraffic, OffByDefault) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::VV, 1024, D);
  Simulator Sim(DeviceSpec::gtx280());
  PerfResult R = Sim.runPerformance(*Naive, D);
  ASSERT_TRUE(R.Valid);
  EXPECT_TRUE(R.Sites.empty());
}
