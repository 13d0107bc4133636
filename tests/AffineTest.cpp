//===-- tests/AffineTest.cpp - affine index model tests -------------------===//

#include "ast/Builder.h"
#include "ast/Printer.h"
#include "core/Accesses.h"
#include "ast/Affine.h"

#include <gtest/gtest.h>

using namespace gpuc;

namespace {

/// A kernel context with a 64x64 float array and scalar w=64, launch
/// blocks of (16, 1).
struct Fixture {
  Module M;
  KernelFunction *K = nullptr;
  ASTContext &ctx() { return M.context(); }

  Fixture() {
    KernelBuilder B(M, "k");
    B.arrayParam("a", Type::floatTy(), {64, 64});
    B.arrayParam("c", Type::floatTy(), {64, 64}, true);
    B.scalarParam("w", Type::intTy(), 64);
    B.assign(B.at("c", {B.idy(), B.idx()}), B.f(0));
    K = B.finish(16, 1, 64, 64);
  }
};

} // namespace

TEST(Affine, IdxExpansion) {
  Fixture F;
  AffineExpr A;
  ASSERT_TRUE(buildAffine(F.ctx().builtin(BuiltinId::Idx), *F.K, A));
  EXPECT_EQ(A.CTidx, 1);
  EXPECT_EQ(A.CBidx, 16); // BlockDimX
  EXPECT_EQ(A.CBidy, 0);
  EXPECT_EQ(A.Const, 0);
}

TEST(Affine, IdyExpansionUsesBlockDimY) {
  Fixture F;
  AffineExpr A;
  ASSERT_TRUE(buildAffine(F.ctx().builtin(BuiltinId::Idy), *F.K, A));
  EXPECT_EQ(A.CTidy, 1);
  EXPECT_EQ(A.CBidy, 1); // BlockDimY == 1
}

TEST(Affine, ArithmeticComposition) {
  Fixture F;
  ASTContext &Ctx = F.ctx();
  // 2*idx + w - 3  (w binds to 64)
  Expr *E = Ctx.sub(Ctx.add(Ctx.mul(Ctx.intLit(2), Ctx.builtin(BuiltinId::Idx)),
                            Ctx.varRef("w", Type::intTy())),
                    Ctx.intLit(3));
  AffineExpr A;
  ASSERT_TRUE(buildAffine(E, *F.K, A));
  EXPECT_EQ(A.CTidx, 2);
  EXPECT_EQ(A.CBidx, 32);
  EXPECT_EQ(A.Const, 61);
}

TEST(Affine, LoopIteratorSymbol) {
  Fixture F;
  ASTContext &Ctx = F.ctx();
  Expr *E = Ctx.add(Ctx.mul(Ctx.varRef("i", Type::intTy()), Ctx.intLit(4)),
                    Ctx.intLit(8));
  AffineExpr A;
  ASSERT_TRUE(buildAffine(E, *F.K, A));
  EXPECT_EQ(A.loopCoeff("i"), 4);
  EXPECT_EQ(A.Const, 8);
  EXPECT_TRUE(A.hasLoopTerms());
}

TEST(Affine, UnresolvedCases) {
  Fixture F;
  ASTContext &Ctx = F.ctx();
  AffineExpr A;
  // float variable
  EXPECT_FALSE(buildAffine(Ctx.varRef("f", Type::floatTy()), *F.K, A));
  // product of two symbols
  EXPECT_FALSE(buildAffine(Ctx.mul(Ctx.builtin(BuiltinId::Idx),
                                   Ctx.varRef("i", Type::intTy())),
                           *F.K, A));
  // remainder
  EXPECT_FALSE(buildAffine(Ctx.rem(Ctx.builtin(BuiltinId::Idx), Ctx.intLit(7)),
                           *F.K, A));
  // memory load
  EXPECT_FALSE(buildAffine(Ctx.arrayRef("a", {Ctx.intLit(0), Ctx.intLit(0)},
                                        Type::floatTy()),
                           *F.K, A));
}

TEST(Affine, EvaluateMatchesSymbolic) {
  AffineExpr A;
  A.Const = 5;
  A.CTidx = 2;
  A.CBidx = 32;
  A.LoopCoeffs["i"] = 4;
  EXPECT_EQ(A.evaluate(3, 0, 2, 0, {{"i", 10}}), 5 + 6 + 64 + 40);
  EXPECT_EQ(A.evaluate(0, 0, 0, 0, {}), 5);
}

TEST(Affine, RoundTripThroughExpr) {
  Fixture F;
  AffineExpr A;
  A.Const = 7;
  A.CTidx = 1;
  A.CBidx = 16;
  A.LoopCoeffs["i"] = 2;
  Expr *E = affineToExpr(F.ctx(), A);
  AffineExpr Back;
  ASSERT_TRUE(buildAffine(E, *F.K, Back));
  EXPECT_EQ(Back.Const, 7);
  EXPECT_EQ(Back.CTidx, 1);
  EXPECT_EQ(Back.CBidx, 16);
  EXPECT_EQ(Back.loopCoeff("i"), 2);
}

TEST(Accesses, CollectsLoadsAndStoresWithLoops) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("a", Type::floatTy(), {64, 64});
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.scalarParam("w", Type::intTy(), 64);
  B.decl("s", Type::floatTy(), B.f(0));
  B.beginFor("i", B.i(0), B.iv("w"), B.i(1));
  B.addAssign(B.v("s"), B.at("a", {B.idy(), B.iv("i")}));
  B.endFor();
  B.assign(B.at("c", {B.idx()}), B.v("s"));
  KernelFunction *K = B.finish(16, 1, 64, 1);

  auto Accesses = collectGlobalAccesses(*K);
  ASSERT_EQ(Accesses.size(), 2u);
  const AccessInfo &Load = Accesses[0];
  EXPECT_EQ(Load.Ref->base(), "a");
  EXPECT_FALSE(Load.IsStore);
  ASSERT_EQ(Load.Loops.size(), 1u);
  EXPECT_TRUE(Load.Loops[0].Resolved);
  EXPECT_EQ(Load.Loops[0].Bound, 64);
  EXPECT_EQ(Load.Loops[0].trip(), 64);
  ASSERT_TRUE(Load.Resolved);
  // byte address: idy*64*4 + i*4
  EXPECT_EQ(Load.Addr.CTidy, 256);
  EXPECT_EQ(Load.Addr.loopCoeff("i"), 4);
  EXPECT_EQ(Load.Addr.CTidx, 0);

  const AccessInfo &Store = Accesses[1];
  EXPECT_TRUE(Store.IsStore);
  EXPECT_EQ(Store.Ref->base(), "c");
  EXPECT_TRUE(Store.Loops.empty());
  EXPECT_EQ(Store.Addr.CTidx, 4);
  EXPECT_EQ(Store.Addr.CBidx, 64);
}

TEST(Accesses, CompoundAssignCountsLoadAndStore) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64}, true);
  B.addAssign(B.at("c", {B.idx()}), B.f(1));
  KernelFunction *K = B.finish(16, 1, 64, 1);
  auto Accesses = collectGlobalAccesses(*K);
  ASSERT_EQ(Accesses.size(), 2u);
  EXPECT_TRUE(Accesses[0].IsStore);
  EXPECT_FALSE(Accesses[1].IsStore);
}

TEST(Accesses, UnresolvedSubscriptFlagged) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("a", Type::floatTy(), {64});
  B.arrayParam("c", Type::floatTy(), {64}, true);
  // c[idx] = a[idx % 7]
  B.assign(B.at("c", {B.idx()}),
           B.at("a", {B.rem(B.idx(), B.i(7))}));
  KernelFunction *K = B.finish(16, 1, 64, 1);
  auto Accesses = collectGlobalAccesses(*K);
  ASSERT_EQ(Accesses.size(), 2u);
  EXPECT_FALSE(Accesses[1].Resolved);
}

//===----------------------------------------------------------------------===//
// Affine block-remap properties (core/AffineLayout): legality, closure
// under composition, inversion, and verdict preservation through the
// dataflow engine.
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "core/AffineLayout.h"
#include "parser/Parser.h"

#include <set>
#include <utility>

namespace {

/// True when R is a bijection of the GX x GY block-id space, by direct
/// exhaustive application.
bool bijectiveByApplication(const BlockRemap &R, long long GX, long long GY) {
  std::set<std::pair<long long, long long>> Seen;
  for (long long By = 0; By < GY; ++By)
    for (long long Bx = 0; Bx < GX; ++Bx) {
      long long EX, EY;
      R.apply(Bx, By, GX, GY, EX, EY);
      if (EX < 0 || EX >= GX || EY < 0 || EY >= GY)
        return false; // bounds preservation is part of the contract
      if (!Seen.insert({EX, EY}).second)
        return false;
    }
  return Seen.size() == static_cast<size_t>(GX * GY);
}

std::vector<BlockRemap> smallRemaps() {
  std::vector<BlockRemap> Rs;
  for (int A00 : {-2, -1, 0, 1, 2})
    for (int A01 : {-1, 0, 1, 2})
      for (int A10 : {-1, 0, 1})
        for (int A11 : {-1, 0, 1, 2})
          for (long long C0 : {0, 1})
            for (long long C1 : {0, 3})
              Rs.push_back(BlockRemap{A00, A01, A10, A11, C0, C1});
  return Rs;
}

} // namespace

TEST(BlockRemap, LegalImpliesBijectiveOnEveryGrid) {
  // Soundness everywhere: remapLegal may be conservative, but whatever it
  // accepts must relabel the grid bijectively and stay in bounds.
  const std::pair<long long, long long> Grids[] = {
      {1, 1}, {2, 2}, {4, 4}, {5, 5}, {6, 6},
      {8, 1}, {1, 8}, {4, 8}, {6, 4}, {3, 9}};
  for (const BlockRemap &R : smallRemaps())
    for (auto [GX, GY] : Grids) {
      if (remapLegal(R, GX, GY)) {
        EXPECT_TRUE(bijectiveByApplication(R, GX, GY))
            << R.A00 << " " << R.A01 << " / " << R.A10 << " " << R.A11
            << " + (" << R.C0 << "," << R.C1 << ") on " << GX << "x" << GY;
      }
    }
}

TEST(BlockRemap, LegalIffBijectiveOnSquareGrids) {
  // Exactness on square grids: the unit-determinant test accepts exactly
  // the bijections, so the layout family never degrades a legal point.
  for (const BlockRemap &R : smallRemaps())
    for (long long N : {1, 2, 3, 4, 6, 8})
      EXPECT_EQ(remapLegal(R, N, N), bijectiveByApplication(R, N, N))
          << R.A00 << " " << R.A01 << " / " << R.A10 << " " << R.A11
          << " + (" << R.C0 << "," << R.C1 << ") on " << N << "x" << N;
}

TEST(BlockRemap, ComposeMatchesSequentialApplication) {
  for (long long N : {4, 6, 8})
    for (const BlockRemap &Outer : smallRemaps())
      for (const BlockRemap &Inner :
           {BlockRemap::diagonal(), BlockRemap{0, 1, 1, 0, 0, 0},
            BlockRemap{1, 1, 0, 1, 1, 0}, BlockRemap{1, 0, 1, 1, 0, 2}}) {
        BlockRemap C = composeRemap(Outer, Inner, N);
        for (long long By = 0; By < N; ++By)
          for (long long Bx = 0; Bx < N; ++Bx) {
            long long MX, MY, SX, SY, CX, CY;
            Inner.apply(Bx, By, N, N, MX, MY);
            Outer.apply(MX, MY, N, N, SX, SY);
            C.apply(Bx, By, N, N, CX, CY);
            ASSERT_EQ(SX, CX) << "N=" << N;
            ASSERT_EQ(SY, CY) << "N=" << N;
          }
      }
}

TEST(BlockRemap, LegacyDiagonalIsSkewComposedWithSwap) {
  // Section 3.7's diagonal reordering factors through the family: it is
  // the x-skew applied after the row/column swap.
  const BlockRemap Swap{0, 1, 1, 0, 0, 0};
  const BlockRemap SkewX{1, 1, 0, 1, 0, 0};
  for (long long N : {2, 4, 8}) {
    BlockRemap C = composeRemap(SkewX, Swap, N);
    for (long long By = 0; By < N; ++By)
      for (long long Bx = 0; Bx < N; ++Bx) {
        long long CX, CY, DX, DY;
        C.apply(Bx, By, N, N, CX, CY);
        BlockRemap::diagonal().apply(Bx, By, N, N, DX, DY);
        ASSERT_EQ(CX, DX);
        ASSERT_EQ(CY, DY);
      }
  }
}

TEST(BlockRemap, InverseRoundTripsEveryLegalRemap) {
  for (long long N : {1, 2, 3, 4, 6, 8})
    for (const BlockRemap &R : smallRemaps()) {
      BlockRemap Inv;
      bool Invertible = invertRemap(R, N, Inv);
      // On a square grid legality and invertibility coincide.
      EXPECT_EQ(Invertible, remapLegal(R, N, N)) << "N=" << N;
      if (!Invertible)
        continue;
      for (long long By = 0; By < N; ++By)
        for (long long Bx = 0; Bx < N; ++Bx) {
          long long EX, EY, RX, RY;
          R.apply(Bx, By, N, N, EX, EY);
          Inv.apply(EX, EY, N, N, RX, RY);
          ASSERT_EQ(RX, Bx) << "N=" << N;
          ASSERT_EQ(RY, By) << "N=" << N;
        }
    }
}

TEST(BlockRemap, DataflowVerdictsUnchangedByRemap) {
  // A block remap relabels which physical block runs which tile; the
  // dataflow engine's block-id ranges are unchanged, so its bounds
  // verdicts must be too — a clean kernel stays clean, and a proven
  // violation survives every relabeling.
  DiagnosticsEngine D;
  Module M;
  Parser P("#pragma gpuc output(out)\n"
           "#pragma gpuc domain(64,1)\n"
           "__global__ void oob(float out[64]) {\n"
           "  out[idx + 64] = 1.0f;\n"
           "}\n",
           D);
  KernelFunction *Bad = P.parseKernel(M);
  ASSERT_NE(Bad, nullptr) << D.str();
  ASSERT_TRUE(runDataflow(*Bad).anyViolation());
  Bad->launch().Remap = BlockRemap{1, 0, 0, 1, 1, 0}; // shift
  EXPECT_TRUE(runDataflow(*Bad).anyViolation());

  Module M2;
  Parser P2("#pragma gpuc output(out)\n"
            "#pragma gpuc domain(64,64)\n"
            "__global__ void ok(float a[64][64], float out[64][64]) {\n"
            "  out[idy][idx] = a[idy][idx];\n"
            "}\n",
            D);
  KernelFunction *Good = P2.parseKernel(M2);
  ASSERT_NE(Good, nullptr) << D.str();
  ASSERT_FALSE(runDataflow(*Good).anyViolation());
  Good->launch().Remap = BlockRemap::diagonal();
  EXPECT_FALSE(runDataflow(*Good).anyViolation());
}

TEST(LayoutEnumeration, CampingFreeKernelsSearchIdentityOnly) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64, 64}, true);
  B.assign(B.at("c", {B.idy(), B.idx()}), B.f(0));
  KernelFunction *K = B.finish(16, 1, 64, 64);
  CampingAnalysis CA; // no camping anywhere
  std::vector<LayoutPoint> Pts =
      enumerateLayouts(*K, DeviceSpec::gtx280(), CA);
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_TRUE(Pts.front().identity());
}

TEST(LayoutEnumeration, NonSquareGridsSkipSwapAndDiagonal) {
  Module M;
  KernelBuilder B(M, "k");
  B.arrayParam("c", Type::floatTy(), {64, 64}, true);
  B.assign(B.at("c", {B.idy(), B.idx()}), B.f(0));
  KernelFunction *K = B.finish(16, 1, 64, 64); // grid 4x64: not square
  CampingAnalysis CA;
  CA.Detected = true;
  std::vector<LayoutPoint> Pts =
      enumerateLayouts(*K, DeviceSpec::gtx280(), CA);
  ASSERT_FALSE(Pts.empty());
  EXPECT_TRUE(Pts.front().identity());
  for (const LayoutPoint &Pt : Pts) {
    EXPECT_NE(Pt.K, LayoutPoint::Kind::Swap);
    EXPECT_NE(Pt.K, LayoutPoint::Kind::Diagonal);
    // Whatever is enumerated must be legal on the kernel's own grid.
    if (Pt.pureRemap()) {
      EXPECT_TRUE(remapLegal(Pt.Remap, K->launch().GridDimX,
                             K->launch().GridDimY))
          << Pt.name();
    }
  }
}
