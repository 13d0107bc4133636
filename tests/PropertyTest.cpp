//===-- tests/PropertyTest.cpp - randomized invariant tests ---------------===//
//
// Property-style sweeps over generated inputs:
//  * interpreter arithmetic == host arithmetic on random expression trees;
//  * printing a parsed kernel and re-parsing it is a fixed point;
//  * performance-mode sampling extrapolates to the full run for every
//    Table 1 algorithm;
//  * constant folding preserves evaluation on random integer trees.
//
//===----------------------------------------------------------------------===//

#include "ast/Builder.h"
#include "ast/Printer.h"
#include "baselines/CpuReference.h"
#include "core/ConstantFold.h"
#include "parser/Parser.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <utility>

using namespace gpuc;

namespace {

/// Deterministic random float expression over {idx, literals, + - * and
/// fmaxf}, together with a host-side evaluator, so the interpreter can be
/// checked against an independent computation.
struct ExprGen {
  std::mt19937 Rng;
  KernelBuilder &B;

  ExprGen(unsigned Seed, KernelBuilder &B) : Rng(Seed), B(B) {}

  int irand(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  }

  /// Builds a float expression and a matching evaluator of idx.
  std::pair<Expr *, std::function<float(int)>> gen(int Depth) {
    if (Depth == 0) {
      switch (irand(0, 2)) {
      case 0: {
        float V = static_cast<float>(irand(-8, 8)) * 0.25f;
        return {B.f(V), [V](int) { return V; }};
      }
      case 1:
        return {B.ctx().bin(BinOp::Add, B.idx(), B.i(0)),
                [](int I) { return static_cast<float>(I); }};
      default: {
        int C = irand(1, 9);
        return {B.i(C), [C](int) { return static_cast<float>(C); }};
      }
      }
    }
    auto [L, FL] = gen(Depth - 1);
    auto [R, FR] = gen(Depth - 1);
    switch (irand(0, 3)) {
    case 0:
      return {B.add(L, R), [FL, FR](int I) { return FL(I) + FR(I); }};
    case 1:
      return {B.sub(L, R), [FL, FR](int I) { return FL(I) - FR(I); }};
    case 2:
      return {B.mul(L, R), [FL, FR](int I) { return FL(I) * FR(I); }};
    default:
      return {B.ctx().call("fmaxf", {L, R}, Type::floatTy()),
              [FL, FR](int I) { return std::max(FL(I), FR(I)); }};
    }
  }
};

} // namespace

class InterpreterArithmetic : public ::testing::TestWithParam<unsigned> {};

TEST_P(InterpreterArithmetic, MatchesHostEvaluation) {
  Module M;
  KernelBuilder B(M, "p");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  ExprGen G(GetParam(), B);
  auto [E, Host] = G.gen(4);
  B.assign(B.at("c", {B.idx()}), E);
  KernelFunction *K = B.finish(16, 1, 64, 1);

  BufferSet Buf;
  DiagnosticsEngine D;
  Simulator Sim(DeviceSpec::gtx280());
  ASSERT_TRUE(Sim.runFunctional(*K, Buf, D)) << D.str();
  for (int I = 0; I < 64; ++I) {
    float Want = Host(I);
    float Got = Buf.data("c")[static_cast<size_t>(I)];
    EXPECT_NEAR(Got, Want, 1e-3 * (1.0 + std::fabs(Want))) << "idx " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterArithmetic,
                         ::testing::Range(1u, 25u));

class FoldPreserves : public ::testing::TestWithParam<unsigned> {};

TEST_P(FoldPreserves, ValueUnchangedByFolding) {
  // Build the same random expression twice, fold one copy, run both.
  auto Run = [&](bool Fold) {
    Module M;
    KernelBuilder B(M, "p");
    B.arrayParam("c", Type::floatTy(), {64}, true);
    ExprGen G(GetParam() * 7919, B);
    auto [E, Host] = G.gen(4);
    (void)Host;
    if (Fold)
      E = foldExpr(M.context(), E);
    B.assign(B.at("c", {B.idx()}), E);
    KernelFunction *K = B.finish(16, 1, 64, 1);
    BufferSet Buf;
    DiagnosticsEngine D;
    Simulator Sim(DeviceSpec::gtx280());
    EXPECT_TRUE(Sim.runFunctional(*K, Buf, D)) << D.str();
    return Buf.data("c");
  };
  auto Plain = Run(false);
  auto Folded = Run(true);
  for (int I = 0; I < 64; ++I)
    EXPECT_NEAR(Plain[static_cast<size_t>(I)],
                Folded[static_cast<size_t>(I)],
                1e-3 * (1.0 + std::fabs(Plain[static_cast<size_t>(I)])));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldPreserves, ::testing::Range(1u, 13u));

//===----------------------------------------------------------------------===//
// Parser round trip
//===----------------------------------------------------------------------===//

class ParserRoundTrip : public ::testing::TestWithParam<Algo> {};

TEST_P(ParserRoundTrip, PrintedNaiveBodyReparses) {
  // printKernel emits the preamble-style kernel, which is not itself in
  // the dialect (threadIdx spellings); instead check that the body's
  // printed statements are stable across print->parse->print.
  Algo A = GetParam();
  long long N = A == Algo::RD || A == Algo::CRD ? 256 : 64;
  Module M1;
  DiagnosticsEngine D1;
  KernelFunction *K1 = parseNaive(M1, A, N, D1);
  ASSERT_NE(K1, nullptr) << D1.str();
  std::string Body1 = printStmt(K1->body());

  Module M2;
  DiagnosticsEngine D2;
  Parser P2(naiveSource(A, N), D2);
  KernelFunction *K2 = P2.parseKernel(M2);
  ASSERT_NE(K2, nullptr);
  EXPECT_EQ(Body1, printStmt(K2->body()));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, ParserRoundTrip,
    ::testing::Values(Algo::TMV, Algo::MM, Algo::MV, Algo::VV, Algo::RD,
                      Algo::STRSM, Algo::CONV, Algo::TP, Algo::DEMOSAIC,
                      Algo::IMREGIONMAX, Algo::CRD),
    [](const ::testing::TestParamInfo<Algo> &Info) {
      return std::string(algoInfo(Info.param).Name);
    });

//===----------------------------------------------------------------------===//
// Sampling accuracy across algorithms
//===----------------------------------------------------------------------===//

class SamplingAccuracy : public ::testing::TestWithParam<Algo> {};

TEST_P(SamplingAccuracy, ExtrapolationTracksFullRun) {
  Algo A = GetParam();
  long long N = A == Algo::CONV ? 128 : 256;
  if (A == Algo::RD || A == Algo::CRD || A == Algo::VV)
    N = 1 << 15;
  Module M;
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  ASSERT_NE(K, nullptr) << D.str();
  Simulator Sim(DeviceSpec::gtx280());
  PerfOptions Sampled;
  PerfOptions Full;
  Full.LoopSampleThreshold = 1 << 30;
  Full.BlocksPerCluster = 1 << 24; // every block
  Full.SampleClusters = 1;
  PerfResult RS = Sim.runPerformance(*K, D, Sampled);
  PerfResult RF = Sim.runPerformance(*K, D, Full);
  ASSERT_TRUE(RS.Valid && RF.Valid) << D.str();
  // Byte totals within 15% for uniform-work kernels. The reductions have
  // strongly non-uniform per-block work (early blocks stay active through
  // the whole halving loop), so spot sampling overestimates there by a
  // bounded, conservative factor — assert the bound, not tightness.
  double Ratio = RS.Stats.bytesMovedTotal() / RF.Stats.bytesMovedTotal();
  if (A == Algo::RD || A == Algo::CRD) {
    EXPECT_GE(Ratio, 0.9) << algoInfo(A).Name;
    EXPECT_LE(Ratio, 4.0) << algoInfo(A).Name;
  } else {
    EXPECT_NEAR(Ratio, 1.0, 0.15) << algoInfo(A).Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, SamplingAccuracy,
    ::testing::Values(Algo::TMV, Algo::MM, Algo::MV, Algo::VV, Algo::CONV,
                      Algo::TP, Algo::DEMOSAIC, Algo::IMREGIONMAX, Algo::RD,
                      Algo::CRD),
    [](const ::testing::TestParamInfo<Algo> &Info) {
      return std::string(algoInfo(Info.param).Name);
    });

//===----------------------------------------------------------------------===//
// Timing-model monotonicity sweeps
//===----------------------------------------------------------------------===//

class TimingMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(TimingMonotonic, MoreBytesNeverFaster) {
  DeviceSpec Dev = DeviceSpec::gtx280();
  Occupancy O;
  O.BlocksPerSM = 4;
  O.ActiveThreadsPerSM = 1024;
  double Step = GetParam() * 1e8;
  SimStats S1, S2;
  S1.BytesMovedFloat = Step;
  S2.BytesMovedFloat = Step * 2;
  S1.DynOps = S2.DynOps = 1e7;
  EXPECT_LE(estimateTime(Dev, S1, O, 256).TotalMs,
            estimateTime(Dev, S2, O, 256).TotalMs);
  // And more compute is never faster either.
  SimStats C1 = S1, C2 = S1;
  C2.DynOps *= 4;
  EXPECT_LE(estimateTime(Dev, C1, O, 256).TotalMs,
            estimateTime(Dev, C2, O, 256).TotalMs);
}

INSTANTIATE_TEST_SUITE_P(Scales, TimingMonotonic, ::testing::Values(1, 3, 10));
