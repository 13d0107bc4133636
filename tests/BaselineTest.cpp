//===-- tests/BaselineTest.cpp - comparator kernels tests -----------------===//

#include "ast/Printer.h"
#include "baselines/CpuReference.h"
#include "baselines/CublasLike.h"
#include "core/Compiler.h"

#include <gtest/gtest.h>

#include <limits>

using namespace gpuc;

namespace {

void expectMatches(Algo A, long long N, KernelFunction &K,
                   const char *What) {
  BufferSet B;
  initInputs(A, N, B);
  std::vector<float> Ref = cpuReference(A, N, B);
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(K, B, D)) << What << ": " << D.str();
  EXPECT_EQ(countMismatches(B.data(outputBufferName(A)), Ref), 0)
      << What << "\n"
      << printKernel(K);
}

} // namespace

TEST(CountMismatches, CountsOneSidedNaN) {
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const float Inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(countMismatches({NaN}, {0.25f}), 1);
  EXPECT_EQ(countMismatches({0.25f}, {NaN}), 1);
  EXPECT_EQ(countMismatches({NaN}, {NaN}), 0);
  EXPECT_EQ(countMismatches({1.0f}, {0.25f}), 1);
  EXPECT_EQ(countMismatches({NaN, 0.25f, NaN, 1.0f}, {0.25f, NaN, NaN, 0.25f}),
            3);
  // The bound is relative to max(1, |Want|); equal infinities agree.
  EXPECT_EQ(countMismatches({1000.5f, 0.5009f, Inf}, {1000.0f, 0.5f, Inf},
                            1e-3),
            0);
  EXPECT_EQ(countMismatches({1.0f, Inf, -Inf}, {Inf, 1.0f, Inf}), 3);
  // Differing sizes count the larger size.
  EXPECT_EQ(countMismatches({1.0f, 2.0f}, {1.0f}), 2);
}

class CublasLikeCorrect : public ::testing::TestWithParam<Algo> {};

TEST_P(CublasLikeCorrect, MatchesCpuReference) {
  Algo A = GetParam();
  long long N = A == Algo::STRSM ? 64 : (A == Algo::RD || A == Algo::VV)
                                            ? 4096
                                            : 128;
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = cublasLikeKernel(M, A, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  expectMatches(A, N, *K, K->name().c_str());
}

INSTANTIATE_TEST_SUITE_P(Six, CublasLikeCorrect,
                         ::testing::Values(Algo::MM, Algo::MV, Algo::TMV,
                                           Algo::VV, Algo::RD, Algo::STRSM),
                         [](const ::testing::TestParamInfo<Algo> &Info) {
                           return std::string(algoInfo(Info.param).Name);
                         });

TEST(SdkTranspose, BothVariantsAreCorrect) {
  const long long N = 128;
  Module M;
  KernelFunction *Prev = sdkTransposePrev(M, N);
  KernelFunction *New = sdkTransposeNew(M, N);
  expectMatches(Algo::TP, N, *Prev, "sdk prev");
  expectMatches(Algo::TP, N, *New, "sdk new");
}

TEST(SdkTranspose, PrevHasBankConflictsNewDoesNot) {
  const long long N = 512;
  Module M;
  KernelFunction *Prev = sdkTransposePrev(M, N);
  KernelFunction *New = sdkTransposeNew(M, N);
  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfResult RPrev = Sim.runPerformance(*Prev, D);
  PerfResult RNew = Sim.runPerformance(*New, D);
  ASSERT_TRUE(RPrev.Valid && RNew.Valid) << D.str();
  EXPECT_GT(RPrev.Stats.SharedBankExtraCycles, 0);
  EXPECT_EQ(RNew.Stats.SharedBankExtraCycles, 0);
}

TEST(SdkTranspose, DiagonalRemovesCampingAt4k) {
  const long long N = 4096;
  Module M;
  KernelFunction *Prev = sdkTransposePrev(M, N);
  KernelFunction *New = sdkTransposeNew(M, N);
  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfResult RPrev = Sim.runPerformance(*Prev, D);
  PerfResult RNew = Sim.runPerformance(*New, D);
  ASSERT_TRUE(RPrev.Valid && RNew.Valid) << D.str();
  EXPECT_GT(RPrev.Timing.CampingFactor, RNew.Timing.CampingFactor);
  EXPECT_LT(RNew.TimeMs, RPrev.TimeMs);
}

TEST(BandwidthKernels, AllWidthsCorrect) {
  Module M;
  Simulator Sim(DeviceSpec::gtx280());
  for (int W : {1, 2, 4}) {
    KernelFunction *K = bandwidthCopyKernel(M, W, 1024);
    BufferSet B;
    auto &A = B.alloc("a", 1024);
    for (int I = 0; I < 1024; ++I)
      A[static_cast<size_t>(I)] = static_cast<float>(I * 3 % 17);
    DiagnosticsEngine D;
    ASSERT_TRUE(Sim.runFunctional(*K, B, D)) << D.str();
    for (int I = 0; I < 1024; ++I)
      EXPECT_FLOAT_EQ(B.data("c")[static_cast<size_t>(I)],
                      static_cast<float>(I * 3 % 17))
          << "width " << W;
  }
}
