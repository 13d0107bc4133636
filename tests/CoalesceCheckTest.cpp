//===-- tests/CoalesceCheckTest.cpp - Section 3.2 checker tests -----------===//
//
// Unit tests pin the paper's own examples; a parameterized property test
// validates the analytic checker against brute-force address enumeration
// (the enumeration the paper describes: all 16 threads of a half warp,
// and the first 16 values of every loop index).
//
//===----------------------------------------------------------------------===//

#include "ast/Builder.h"
#include "core/Coalescing.h"

#include <gtest/gtest.h>

using namespace gpuc;

namespace {

struct BuiltKernel {
  Module M;
  KernelFunction *K = nullptr;
  std::vector<AccessInfo> Accesses;
};

/// Builds `for (i = Init; i < 64; i += Step) s += a[<Row>][<Col>]` over a
/// 64x64 array with blocks of (16,1) and collects its accesses.
void buildLoopKernel(BuiltKernel &Out,
                     const std::function<Expr *(KernelBuilder &)> &Row,
                     const std::function<Expr *(KernelBuilder &)> &Col,
                     long long Init = 0, long long Step = 1) {
  KernelBuilder B(Out.M, "k");
  B.arrayParam("a", Type::floatTy(), {64, 64});
  B.arrayParam("v", Type::floatTy(), {4096});
  B.arrayParam("c", Type::floatTy(), {64, 64}, true);
  B.decl("s", Type::floatTy(), B.f(0));
  B.beginFor("i", B.i(Init), B.i(64), B.i(Step));
  if (Row)
    B.addAssign(B.v("s"), B.at("a", {Row(B), Col(B)}));
  else
    B.addAssign(B.v("s"), B.at("v", {Col(B)}));
  B.endFor();
  B.assign(B.at("c", {B.idy(), B.idx()}), B.v("s"));
  Out.K = B.finish(16, 1, 64, 64);
  Out.Accesses = collectGlobalAccesses(*Out.K);
}

/// Brute-force check per the paper: enumerate half-warp addresses for a
/// sample of blocks and the first 16 loop iterations.
bool bruteForceCoalesced(const AccessInfo &A) {
  if (!A.Resolved)
    return false;
  const long long Seg = 16LL * A.ElemBytes;
  for (long long Bidy = 0; Bidy < 3; ++Bidy) {
    for (long long Bidx = 0; Bidx < 3; ++Bidx) {
      // First 16 values of each loop (single loop in these kernels).
      long long Iters = 16;
      for (long long It = 0; It < Iters; ++It) {
        std::map<std::string, long long> LoopVals;
        for (const LoopInfo &L : A.Loops)
          LoopVals[L.Loop->iterName()] = L.Init + It * L.Step;
        long long Base = A.Addr.evaluate(0, 0, Bidx, Bidy, LoopVals);
        if (Base % Seg != 0)
          return false;
        for (long long T = 1; T < 16; ++T) {
          long long Addr = A.Addr.evaluate(T, 0, Bidx, Bidy, LoopVals);
          if (Addr != Base + T * A.ElemBytes)
            return false;
        }
      }
    }
  }
  return true;
}

} // namespace

TEST(CoalesceCheck, PaperExampleRowWalk) {
  // a[idy][i]: offsets all zero -> not coalesced (Section 3.2).
  BuiltKernel BK;
  buildLoopKernel(BK, [](KernelBuilder &B) { return B.idy(); },
                  [](KernelBuilder &B) { return B.iv("i"); });
  CoalesceInfo CI = checkCoalescing(BK.Accesses[0], *BK.K);
  EXPECT_FALSE(CI.Coalesced);
  EXPECT_EQ(CI.Failure, CoalesceFailure::ZeroStride);
}

TEST(CoalesceCheck, PaperExampleColumnWalk) {
  // b[i][idx]: coalesced when rows are 16-word aligned.
  BuiltKernel BK;
  buildLoopKernel(BK, [](KernelBuilder &B) { return B.iv("i"); },
                  [](KernelBuilder &B) { return B.idx(); });
  CoalesceInfo CI = checkCoalescing(BK.Accesses[0], *BK.K);
  EXPECT_TRUE(CI.Coalesced);
  EXPECT_EQ(CI.ThreadStrideBytes, 4);
}

TEST(CoalesceCheck, PaperExampleShiftedBase) {
  // b[idx + i]: right stride but base not always a multiple of 16 words.
  BuiltKernel BK;
  buildLoopKernel(BK, nullptr, [](KernelBuilder &B) {
    return B.add(B.idx(), B.iv("i"));
  });
  CoalesceInfo CI = checkCoalescing(BK.Accesses[0], *BK.K);
  EXPECT_FALSE(CI.Coalesced);
  EXPECT_EQ(CI.Failure, CoalesceFailure::Misaligned);
}

TEST(CoalesceCheck, PaperExampleThreadIdInHighDim) {
  // a[idx][i]: thread id indexes rows.
  BuiltKernel BK;
  buildLoopKernel(BK, [](KernelBuilder &B) { return B.idx(); },
                  [](KernelBuilder &B) { return B.iv("i"); });
  CoalesceInfo CI = checkCoalescing(BK.Accesses[0], *BK.K);
  EXPECT_FALSE(CI.Coalesced);
  EXPECT_EQ(CI.Failure, CoalesceFailure::HighDimThread);
}

TEST(CoalesceCheck, StridedPairAccess) {
  // a[2*idx]: stride 8 bytes.
  BuiltKernel BK;
  buildLoopKernel(BK, nullptr, [](KernelBuilder &B) {
    return B.mul(B.i(2), B.idx());
  });
  CoalesceInfo CI = checkCoalescing(BK.Accesses[0], *BK.K);
  EXPECT_FALSE(CI.Coalesced);
  EXPECT_EQ(CI.Failure, CoalesceFailure::BadStride);
}

TEST(CoalesceCheck, UnresolvedIndexSkipped) {
  BuiltKernel BK;
  buildLoopKernel(BK, nullptr, [](KernelBuilder &B) {
    return B.rem(B.idx(), B.i(13));
  });
  CoalesceInfo CI = checkCoalescing(BK.Accesses[0], *BK.K);
  EXPECT_EQ(CI.Failure, CoalesceFailure::Unresolved);
}

TEST(CoalesceCheck, LoopStepBreaksAlignment) {
  // a[i][idx] with odd-step loop keeps alignment only if the row stride
  // stays segment-aligned; rows of 64 floats always are, so this stays
  // coalesced regardless of step.
  BuiltKernel BK;
  buildLoopKernel(BK, [](KernelBuilder &B) { return B.iv("i"); },
                  [](KernelBuilder &B) { return B.idx(); },
                  /*Init=*/0, /*Step=*/3);
  EXPECT_TRUE(checkCoalescing(BK.Accesses[0], *BK.K).Coalesced);
}

//===----------------------------------------------------------------------===//
// Property sweep: analytic checker == brute-force enumeration.
//===----------------------------------------------------------------------===//

struct SubscriptCase {
  int RowKind;        // 0: idy, 1: i, 2: const 3
  long long ColIdxMul;  // coefficient of idx in the column
  long long ColLoopMul; // coefficient of i in the column
  long long ColConst;
  long long LoopStep;
};

// gtest_discover_tests names each case after its printed value; gtest's
// fallback prints the struct's bytes, padding included, which differ from
// build to build.
void PrintTo(const SubscriptCase &C, std::ostream *OS) {
  *OS << "row" << C.RowKind << "_idx" << C.ColIdxMul << "_i" << C.ColLoopMul
      << "_c" << C.ColConst << "_step" << C.LoopStep;
}

class CoalesceProperty : public ::testing::TestWithParam<SubscriptCase> {};

TEST_P(CoalesceProperty, MatchesBruteForce) {
  const SubscriptCase C = GetParam();
  BuiltKernel BK;
  auto Row = [&](KernelBuilder &B) -> Expr * {
    switch (C.RowKind) {
    case 0:
      return B.idy();
    case 1:
      return B.iv("i");
    default:
      return B.i(3);
    }
  };
  auto Col = [&](KernelBuilder &B) -> Expr * {
    Expr *E = B.i(C.ColConst);
    if (C.ColIdxMul)
      E = B.add(E, B.mul(B.i(C.ColIdxMul), B.idx()));
    if (C.ColLoopMul)
      E = B.add(E, B.mul(B.i(C.ColLoopMul), B.iv("i")));
    return E;
  };
  buildLoopKernel(BK, Row, Col, 0, C.LoopStep);
  const AccessInfo &A = BK.Accesses[0];
  CoalesceInfo CI = checkCoalescing(A, *BK.K);
  if (CI.Failure == CoalesceFailure::Unresolved)
    GTEST_SKIP() << "unresolved form";
  EXPECT_EQ(CI.Coalesced, bruteForceCoalesced(A))
      << "row=" << C.RowKind << " idx*" << C.ColIdxMul << " i*"
      << C.ColLoopMul << " +" << C.ColConst << " step " << C.LoopStep;
}

static std::vector<SubscriptCase> allCases() {
  std::vector<SubscriptCase> Cases;
  for (int Row : {0, 1, 2})
    for (long long IdxMul : {0, 1, 2})
      for (long long LoopMul : {0, 1, 4})
        for (long long Cst : {0, 1, 16})
          for (long long Step : {1, 2})
            Cases.push_back({Row, IdxMul, LoopMul, Cst, Step});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoalesceProperty,
                         ::testing::ValuesIn(allCases()));
