//===-- tests/PipelineTest.cpp - end-to-end compiler integration ----------===//
//
// Every Table 1 algorithm, compiled through every pipeline stage and the
// full design-space search, must produce outputs matching the CPU
// reference; optimized kernels must not be slower than naive ones at
// nontrivial sizes.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/CpuReference.h"
#include "baselines/FftKernels.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "core/ThreadMerge.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

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

/// Runs kernel \p K functionally and compares its output buffer with the
/// CPU reference of \p A. The reference is computed before the run (rd
/// reduces in place).
void expectMatchesReference(Algo A, long long N, KernelFunction &K,
                            const char *What) {
  BufferSet B;
  initInputs(A, N, B);
  std::vector<float> Ref = cpuReference(A, N, B);
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(K, B, D)) << What << ": " << D.str();
  long long Bad = countMismatches(B.data(outputBufferName(A)), Ref);
  EXPECT_EQ(Bad, 0) << What << " (" << algoInfo(A).Name << "): " << Bad
                    << " mismatching elements\n"
                    << printKernel(K);
}

} // namespace

class AlgoPipeline : public ::testing::TestWithParam<Algo> {};

TEST_P(AlgoPipeline, NaiveMatchesCpuReference) {
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  expectMatchesReference(A, N, *Naive, "naive");
}

TEST_P(AlgoPipeline, FullyOptimizedMatchesCpuReference) {
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOutput Out = GC.compile(*Naive);
  ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
  expectMatchesReference(A, N, *Out.Best, "DSE best");
}

TEST_P(AlgoPipeline, EveryCumulativeStageIsCorrect) {
  // The Figure 12 dissection stages must each stay functionally correct.
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  GpuCompiler GC(M, D);

  struct Stage {
    const char *Name;
    CompileOptions Opt;
    int BlockN, ThreadM;
  };
  CompileOptions Coal;
  Coal.Merge = Coal.Prefetch = Coal.PartitionElim = false;
  CompileOptions Merge = Coal;
  Merge.Merge = true;
  CompileOptions Pref = Merge;
  Pref.Prefetch = true;
  CompileOptions Full;
  std::vector<Stage> Stages = {{"coalesced", Coal, 1, 1},
                               {"merged", Merge, 4, 4},
                               {"prefetch", Pref, 4, 4},
                               {"full", Full, 4, 4}};
  for (const Stage &St : Stages) {
    KernelFunction *V = GC.compileVariant(*Naive, St.Opt, St.BlockN,
                                          St.ThreadM);
    ASSERT_NE(V, nullptr) << St.Name << ": " << D.str();
    ASSERT_FALSE(D.hasErrors()) << St.Name << ": " << D.str();
    expectMatchesReference(A, N, *V, St.Name);
  }
}

TEST_P(AlgoPipeline, MergeFactorSweepIsCorrect) {
  // Property sweep: every feasible (block, thread) merge combination must
  // be semantics-preserving (the paper's design space, Section 4).
  Algo A = GetParam();
  long long N = testSize(A);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  GpuCompiler GC(M, D);
  for (int BlockN : {1, 2, 4}) {
    for (int ThreadM : {1, 2, 8}) {
      KernelFunction *V =
          GC.compileVariant(*Naive, CompileOptions(), BlockN, ThreadM);
      ASSERT_NE(V, nullptr);
      ASSERT_FALSE(D.hasErrors()) << D.str();
      if (computeOccupancy(DeviceSpec::gtx280(), *V).Infeasible)
        continue;
      expectMatchesReference(
          A, N, *V,
          strFormat("variant b%d t%d", BlockN, ThreadM).c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, AlgoPipeline,
    ::testing::Values(Algo::TMV, Algo::MM, Algo::MV, Algo::VV, Algo::RD,
                      Algo::STRSM, Algo::CONV, Algo::TP, Algo::DEMOSAIC,
                      Algo::IMREGIONMAX, Algo::CRD),
    [](const ::testing::TestParamInfo<Algo> &Info) {
      return std::string(algoInfo(Info.param).Name);
    });

//===----------------------------------------------------------------------===//
// Performance sanity (shape, not absolute numbers)
//===----------------------------------------------------------------------===//

TEST(PerfShape, OptimizedBeatsNaiveOnMemoryBoundKernels) {
  for (Algo A : {Algo::MM, Algo::MV, Algo::TMV, Algo::CONV}) {
    long long N = A == Algo::CONV ? 256 : 512;
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, A, N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    CompileOutput Out = GC.compile(*Naive);
    ASSERT_NE(Out.Best, nullptr);
    Simulator Sim(DeviceSpec::gtx280());
    PerfResult RN = Sim.runPerformance(*Naive, D);
    PerfResult RO = Sim.runPerformance(*Out.Best, D);
    ASSERT_TRUE(RN.Valid && RO.Valid) << D.str();
    EXPECT_GT(RN.TimeMs / RO.TimeMs, 2.0) << algoInfo(A).Name;
  }
}

TEST(PerfShape, DesignSpaceBestUsesMerging) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 1024, D);
  ASSERT_NE(Naive, nullptr);
  GpuCompiler GC(M, D);
  CompileOutput Out = GC.compile(*Naive);
  ASSERT_NE(Out.Best, nullptr);
  // The paper's mm optimum merges both blocks and threads.
  EXPECT_GT(Out.BestVariant.BlockMergeN, 1);
  EXPECT_GT(Out.BestVariant.ThreadMergeM, 1);
  EXPECT_GE(Out.Best->launch().threadsPerBlock(), 128);
  EXPECT_GE(Out.Variants.size(), 8u);
}

TEST(PerfShape, CoalescingReducesTrafficOnMm) {
  // On G80 a non-coalesced half warp costs one transaction per thread,
  // so the conversion slashes bus traffic (GT200's relaxed coalescer
  // already merges most of the waste, which is the paper's
  // "improved baseline" note).
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 512, D);
  ASSERT_NE(Naive, nullptr);
  GpuCompiler GC(M, D);
  CompileOptions Coal;
  Coal.Merge = Coal.Prefetch = Coal.PartitionElim = false;
  Coal.Device = DeviceSpec::gtx8800();
  KernelFunction *V = GC.compileVariant(*Naive, Coal, 1, 1);
  Simulator Sim(DeviceSpec::gtx8800());
  PerfResult RN = Sim.runPerformance(*Naive, D);
  PerfResult RC = Sim.runPerformance(*V, D);
  ASSERT_TRUE(RN.Valid && RC.Valid);
  EXPECT_GT(RN.Stats.bytesMovedTotal(), 3.0 * RC.Stats.bytesMovedTotal());
}

//===----------------------------------------------------------------------===//
// FFT case study (Section 7)
//===----------------------------------------------------------------------===//

TEST(Fft, ReferenceMatchesDft) {
  EXPECT_LT(fftReferenceVsDft(64, 2), 1e-3);
  EXPECT_LT(fftReferenceVsDft(512, 8), 1e-3);
}

TEST(Fft, Radix2KernelMatchesReference) {
  const long long N = 1024;
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft2(M, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  BufferSet B;
  initFftInputs(N, 2, B);
  auto [WantRe, WantIm] = fftReference(N, 2, B);
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, B, D)) << D.str();
  auto [ReName, ImName] = fftOutputNames(N, 2);
  EXPECT_EQ(countMismatches(B.data(ReName), WantRe, 1e-2), 0);
  EXPECT_EQ(countMismatches(B.data(ImName), WantIm, 1e-2), 0);
}

TEST(Fft, Radix8KernelMatchesReference) {
  const long long N = 512; // 8^3
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft8(M, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  BufferSet B;
  initFftInputs(N, 8, B);
  auto [WantRe, WantIm] = fftReference(N, 8, B);
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, B, D)) << D.str();
  auto [ReName, ImName] = fftOutputNames(N, 8);
  EXPECT_EQ(countMismatches(B.data(ReName), WantRe, 1e-2), 0);
  EXPECT_EQ(countMismatches(B.data(ImName), WantIm, 1e-2), 0);
}

TEST(Fft, ThreadMergedRadix2StaysCorrect) {
  // The compiler's contribution to the case study: merging 4 threads of
  // the 2-point kernel yields the "8-point per step" version.
  const long long N = 4096; // grid of 8 blocks, mergeable by 4
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft2(M, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  ASSERT_TRUE(threadMerge(*K, M.context(), 4, /*AlongY=*/false));
  BufferSet B;
  initFftInputs(N, 2, B);
  auto [WantRe, WantIm] = fftReference(N, 2, B);
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, B, D)) << D.str();
  auto [ReName, ImName] = fftOutputNames(N, 2);
  EXPECT_EQ(countMismatches(B.data(ReName), WantRe, 1e-2), 0);
  EXPECT_EQ(countMismatches(B.data(ImName), WantIm, 1e-2), 0);
}

TEST(Fft, PlanarLayoutDoesNotVectorize) {
  // The FFT kernels store re/im in separate (planar) arrays, so the
  // complex-pair vectorization rule of Section 3.1 must NOT fire (it
  // targets interleaved layouts like crd's).
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseFft2(M, 1024, D);
  ASSERT_NE(K, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Coalesce = false; // isolate the vectorization step
  KernelFunction *V = GC.compileVariant(*K, Opt, 1, 1);
  std::string T = printKernel(*V);
  EXPECT_EQ(T.find("(float2*)"), std::string::npos) << T;
}
