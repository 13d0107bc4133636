//===-- tests/LayoutTest.cpp - affine layout search regression pins -------===//
//
// The affine layout search must rediscover the paper's two partition-
// camping remedies — the Figure 9b address-offset rotation and the
// diagonal block reordering — as model-driven winners: same decision,
// same modeled time, and byte-identical winner text as the paper's
// one-shot heuristic (paperLayoutPoint) tried at every merge-factor pair.
// On camping-free kernels the family must not fire.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "core/AffineLayout.h"
#include "core/Compiler.h"
#include "core/Report.h"
#include "sim/Occupancy.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>
#include <atomic>
#include <map>
#include <memory>
#include <set>

using namespace gpuc;

namespace {

struct Snapshot {
  bool Ok = false;
  std::string Layout;
  int BestN = 0, BestM = 0;
  double BestMs = 0;
  std::string BestText;
  std::string Log;
  std::vector<std::string> VariantLayouts;
  SearchStats Stats;
  PartitionCampResult Camping;
  std::string DesignReport;
  std::string PlanReport;
};

Snapshot runSearch(Algo A, long long N, const DeviceSpec &Dev,
                   int Jobs = 1, bool PartitionElim = true) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  EXPECT_NE(Naive, nullptr) << D.str();
  Snapshot S;
  if (!Naive)
    return S;
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = Dev;
  Opt.Jobs = Jobs;
  Opt.PartitionElim = PartitionElim;
  CompileOutput Out = GC.compile(*Naive, Opt);
  EXPECT_NE(Out.Best, nullptr) << D.str() << Out.Log;
  EXPECT_FALSE(D.hasErrors()) << D.str();
  if (!Out.Best)
    return S;
  S.Ok = true;
  S.Layout = Out.BestVariant.Layout;
  S.BestN = Out.BestVariant.BlockMergeN;
  S.BestM = Out.BestVariant.ThreadMergeM;
  S.BestMs = Out.BestVariant.Perf.TimeMs;
  S.BestText = printKernel(*Out.Best);
  S.Log = Out.Log;
  for (const VariantResult &V : Out.Variants)
    S.VariantLayouts.push_back(V.Layout);
  S.Stats = Out.Search;
  S.Camping = Out.Camping;
  S.DesignReport = designSpaceReport(Out);
  S.PlanReport = planReport(Out);
  return S;
}

/// Every merge-factor pair the search tries under \p Plan, in canonical
/// order.
std::vector<std::pair<int, int>> mergePairs(const MergePlan &Plan) {
  std::vector<int> BlockNs{1}, ThreadMs{1};
  if (Plan.BlockMergeX)
    BlockNs = {1, 8, 16, 32};
  if (Plan.anyThreadMerge())
    ThreadMs = {1, 4, 8, 16, 32};
  std::vector<std::pair<int, int>> Pairs;
  for (int BN : BlockNs)
    for (int TM : ThreadMs)
      Pairs.push_back({BN, TM});
  return Pairs;
}

/// The paper's one-shot heuristic as a search: every merge-factor pair the
/// search tries, compiled without a layout point (so compileVariant
/// applies paperLayoutPoint) and simulated; the strict minimum in
/// canonical order wins. Like compile(), (1,1) is built in the naive
/// kernel's module and every other pair in a fresh Module, because
/// temporaries are numbered per module.
Snapshot runPaperHeuristic(Algo A, long long N, const DeviceSpec &Dev) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  EXPECT_NE(Naive, nullptr) << D.str();
  Snapshot Best;
  if (!Naive)
    return Best;
  CompileOptions Opt;
  Opt.Device = Dev;
  MergePlan Plan;
  GpuCompiler GC(M, D);
  KernelFunction *Unit = GC.compileVariant(*Naive, Opt, 1, 1, &Plan);
  Simulator Sim(Dev);
  std::vector<std::unique_ptr<Module>> Owners;
  for (auto [BN, TM] : mergePairs(Plan)) {
    KernelFunction *K = Unit;
    if (BN != 1 || TM != 1) {
      Owners.push_back(std::make_unique<Module>());
      K = GpuCompiler(*Owners.back(), D).compileVariant(*Naive, Opt, BN, TM);
    }
    if (!K || computeOccupancy(Dev, *K).Infeasible)
      continue;
    DiagnosticsEngine RunDiags;
    PerfResult R = Sim.runPerformance(*K, RunDiags, Opt.Perf);
    if (R.Valid && (!Best.Ok || R.TimeMs < Best.BestMs)) {
      Best.Ok = true;
      Best.BestN = BN;
      Best.BestM = TM;
      Best.BestMs = R.TimeMs;
      Best.BestText = printKernel(*K);
    }
  }
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return Best;
}

/// The search's winner is the paper heuristic's, byte for byte.
void expectPaperHeuristicWinner(const Snapshot &Search, Algo A, long long N,
                                const DeviceSpec &Dev) {
  Snapshot Paper = runPaperHeuristic(A, N, Dev);
  ASSERT_TRUE(Paper.Ok);
  EXPECT_EQ(Search.BestText, Paper.BestText);
  EXPECT_EQ(Search.BestMs, Paper.BestMs);
  EXPECT_EQ(Search.BestN, Paper.BestN);
  EXPECT_EQ(Search.BestM, Paper.BestM);
}

} // namespace

//===----------------------------------------------------------------------===//
// Rediscovery pins: the model-driven search lands exactly where the paper's
// heuristic lands, with identical winner text and identical modeled time.
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, MvRediscoversAddressOffsetOnGtx280) {
  Snapshot Affine = runSearch(Algo::MV, 4096, DeviceSpec::gtx280());
  ASSERT_TRUE(Affine.Ok);
  // Decision pin: the rotation point wins the search.
  EXPECT_EQ(Affine.Layout, "offset");
  EXPECT_EQ(Affine.Stats.LayoutWins, 1);
  // 1-D family: identity, offset rotation, constant shift.
  EXPECT_EQ(Affine.Stats.LayoutPoints, 3);
  EXPECT_TRUE(Affine.Camping.Detected);
  EXPECT_TRUE(Affine.Camping.AppliedOffset);
  // Address-expression pin: the transformed index is the paper's rotation
  // (i + (PartitionBytes/4)*bidx) mod RowElems.
  EXPECT_NE(Affine.BestText.find("(64*bidx)"), std::string::npos)
      << Affine.BestText;
  EXPECT_NE(Affine.BestText.find("%4096)"), std::string::npos)
      << Affine.BestText;
  // The heuristic produces the same kernel at the same modeled time —
  // the search subsumes it, byte for byte.
  expectPaperHeuristicWinner(Affine, Algo::MV, 4096, DeviceSpec::gtx280());
}

TEST(LayoutSearch, MvRediscoversOffsetForPartialCampingOnGtx8800) {
  // 3072-row mv on the 6-partition device: a partial-coverage camp (the
  // gcd generalization), still best fixed by the rotation.
  Snapshot Affine = runSearch(Algo::MV, 3072, DeviceSpec::gtx8800());
  ASSERT_TRUE(Affine.Ok);
  EXPECT_EQ(Affine.Layout, "offset");
  EXPECT_TRUE(Affine.Camping.AppliedOffset);
  expectPaperHeuristicWinner(Affine, Algo::MV, 3072, DeviceSpec::gtx8800());
}

TEST(LayoutSearch, TransposeRediscoversDiagonalOnGtx280) {
  Snapshot Affine = runSearch(Algo::TP, 2048, DeviceSpec::gtx280());
  ASSERT_TRUE(Affine.Ok);
  EXPECT_EQ(Affine.Layout, "diagonal");
  EXPECT_EQ(Affine.Stats.LayoutWins, 1);
  // 2-D square family: identity, diagonal, swap, skew-x, skew-y, shift.
  EXPECT_EQ(Affine.Stats.LayoutPoints, 6);
  EXPECT_TRUE(Affine.Camping.Detected);
  EXPECT_TRUE(Affine.Camping.AppliedDiagonal);
  EXPECT_NE(Affine.BestText.find("diagonal block reordering"),
            std::string::npos)
      << Affine.BestText;
  expectPaperHeuristicWinner(Affine, Algo::TP, 2048, DeviceSpec::gtx280());
}

//===----------------------------------------------------------------------===//
// Must-not-fire pins: on kernels where the paper's heuristic never fires,
// the identity must win and the emitted winner must stay byte-identical.
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, MustNotFireOnMatrixMultiply) {
  Snapshot Affine = runSearch(Algo::MM, 512, DeviceSpec::gtx280());
  ASSERT_TRUE(Affine.Ok);
  EXPECT_EQ(Affine.Layout, "identity");
  EXPECT_EQ(Affine.Stats.LayoutWins, 0);
  expectPaperHeuristicWinner(Affine, Algo::MM, 512, DeviceSpec::gtx280());
}

TEST(LayoutSearch, MustNotFireOnReduction) {
  Snapshot Affine = runSearch(Algo::RD, 4096, DeviceSpec::gtx280());
  ASSERT_TRUE(Affine.Ok);
  EXPECT_EQ(Affine.Layout, "identity");
  EXPECT_EQ(Affine.Stats.LayoutWins, 0);
  expectPaperHeuristicWinner(Affine, Algo::RD, 4096, DeviceSpec::gtx280());
}

//===----------------------------------------------------------------------===//
// Fixed-factor compiles: given no layout point, compileVariant applies the
// paper's one-shot remedy (paperLayoutPoint), chosen by the grid's shape.
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, FixedFactorCompileAppliesThePaperPoint) {
  struct Case {
    Algo A;
    long long N;
    LayoutPoint Point; // the remedy this kernel's grid shape calls for
  };
  const Case Cases[] = {
      {Algo::MV, 4096, LayoutPoint::offsetRotation()},
      {Algo::TP, 2048,
       LayoutPoint::makeRemap(LayoutPoint::Kind::Diagonal,
                              BlockRemap::diagonal())},
      {Algo::MM, 512, LayoutPoint::identityPoint()}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(algoInfo(C.A).Name);
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, C.A, C.N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    CompileOptions Opt;
    Opt.Device = DeviceSpec::gtx280();
    MergePlan Plan;
    ASSERT_NE(GpuCompiler(M, D).compileVariant(*Naive, Opt, 1, 1, &Plan),
              nullptr)
        << D.str();
    int Applied = 0;
    for (auto [BN, TM] : mergePairs(Plan)) {
      SCOPED_TRACE(strFormat("b%d t%d", BN, TM));
      // Each build in a fresh Module, so temporaries number alike.
      Module ChosenM, PointM;
      PartitionCampResult Chosen, ByPoint;
      KernelFunction *K = GpuCompiler(ChosenM, D).compileVariant(
          *Naive, Opt, BN, TM, nullptr, &Chosen);
      KernelFunction *P = GpuCompiler(PointM, D).compileVariant(
          *Naive, Opt, BN, TM, nullptr, &ByPoint, &C.Point);
      ASSERT_TRUE(K && P) << D.str();
      EXPECT_EQ(printKernel(*K), printKernel(*P));
      EXPECT_EQ(Chosen.AppliedOffset, ByPoint.AppliedOffset);
      EXPECT_EQ(Chosen.AppliedDiagonal, ByPoint.AppliedDiagonal);
      Applied += Chosen.AppliedOffset || Chosen.AppliedDiagonal;
    }
    // The remedy fires at some pair exactly when the shape calls for one.
    EXPECT_EQ(Applied > 0, !C.Point.identity());
    EXPECT_FALSE(D.hasErrors()) << D.str();
  }
}

//===----------------------------------------------------------------------===//
// Search-surface structure
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, CandidateGridIsLayoutsTimesMergeFactors) {
  Snapshot S = runSearch(Algo::TP, 2048, DeviceSpec::gtx280());
  ASSERT_TRUE(S.Ok);
  // tp has no merge candidates, so the grid is exactly one slot per
  // family point, identity first.
  ASSERT_EQ(S.VariantLayouts.size(), 6u);
  EXPECT_EQ(S.VariantLayouts.front(), "identity");
  std::set<std::string> Names(S.VariantLayouts.begin(),
                              S.VariantLayouts.end());
  std::set<std::string> Expected{"identity", "diagonal", "swap",
                                 "skew-x",   "skew-y",   "shift"};
  EXPECT_EQ(Names, Expected);
}

TEST(LayoutSearch, ReportsCarryTheLayoutColumn) {
  Snapshot S = runSearch(Algo::TP, 2048, DeviceSpec::gtx280());
  ASSERT_TRUE(S.Ok);
  EXPECT_NE(S.DesignReport.find("layout=diagonal"), std::string::npos)
      << S.DesignReport;
  EXPECT_NE(S.DesignReport.find("layout=identity"), std::string::npos)
      << S.DesignReport;
  EXPECT_NE(S.PlanReport.find("affine layout: 6 point(s) searched, "
                              "winner diagonal"),
            std::string::npos)
      << S.PlanReport;
  std::string Stats = searchStatsReport(S.Stats);
  EXPECT_NE(Stats.find("affine layout: 6 point(s) searched, 1 win(s)"),
            std::string::npos)
      << Stats;
}

TEST(LayoutSearch, OnePointSearchKeepsUntaggedReportShape) {
  // Every example kernel enumerates at least two points, so take tp with
  // the camping stage off: the scan never runs and only identity remains.
  Snapshot S = runSearch(Algo::TP, 2048, DeviceSpec::gtx280(), 1,
                         /*PartitionElim=*/false);
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.Stats.LayoutPoints, 1);
  EXPECT_EQ(S.DesignReport.find("layout="), std::string::npos)
      << S.DesignReport;
  EXPECT_EQ(S.Log.find("identity"), std::string::npos) << S.Log;
}

//===----------------------------------------------------------------------===//
// Determinism: the layout dimension keeps the search's lane-count
// invariance (same winner, same variant table, same log).
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, JobsInvariance) {
  for (Algo A : {Algo::MV, Algo::TP}) {
    const long long N = A == Algo::MV ? 4096 : 2048;
    Snapshot Serial = runSearch(A, N, DeviceSpec::gtx280(), 1);
    Snapshot Parallel = runSearch(A, N, DeviceSpec::gtx280(), 8);
    ASSERT_TRUE(Serial.Ok && Parallel.Ok);
    EXPECT_EQ(Serial.Layout, Parallel.Layout);
    EXPECT_EQ(Serial.BestText, Parallel.BestText);
    EXPECT_EQ(Serial.BestMs, Parallel.BestMs);
    EXPECT_EQ(Serial.VariantLayouts, Parallel.VariantLayouts);
    EXPECT_EQ(Serial.Log, Parallel.Log);
  }
}

//===----------------------------------------------------------------------===//
// Build sharing: a pure block remap changes only LaunchConfig::Remap, so
// the search compiles each distinct body once and copies it for the remap
// points at the same merge factors.
//===----------------------------------------------------------------------===//

namespace {

/// Kernels whose searches enumerate non-identity layout points: four
/// 80-candidate searches (20 bodies each), the 1-D mv family with the
/// offset rotation, and the square-grid tp family with the diagonal.
const std::vector<std::pair<Algo, long long>> &remapSearches() {
  static const std::vector<std::pair<Algo, long long>> S = {
      {Algo::MM, 128},          {Algo::STRSM, 64}, {Algo::DEMOSAIC, 128},
      {Algo::IMREGIONMAX, 128}, {Algo::MV, 4096},  {Algo::TP, 2048}};
  return S;
}

/// Point name -> block remap, over every pure remap the family has (the
/// full family of a square 2-D grid).
std::map<std::string, BlockRemap> familyRemaps() {
  KernelFunction Square("square", nullptr);
  Square.launch().GridDimX = Square.launch().GridDimY = 4;
  std::map<std::string, BlockRemap> Out;
  for (const LayoutPoint &P : enumerateLayouts(Square, DeviceSpec::gtx280(),
                                               CampingAnalysis(),
                                               /*FullFamily=*/true))
    if (P.pureRemap())
      Out[P.name()] = P.Remap;
  return Out;
}

bool sharesABuild(const VariantResult &V) {
  const std::string L = V.Layout;
  return L != "identity" && L != "offset";
}

} // namespace

TEST(LayoutSearch, EachDistinctBodyIsCompiledOnce) {
  for (const auto &[A, N] : remapSearches()) {
    SCOPED_TRACE(algoInfo(A).Name);
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, A, N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    std::atomic<int> Finals{0};
    CompileOptions Opt;
    Opt.Jobs = 4;
    Opt.HookFactory = [&Finals](DiagnosticsEngine &) -> StageHook {
      return [&Finals](const char *, KernelFunction &, bool Final) {
        if (Final)
          ++Finals;
      };
    };
    GpuCompiler GC(M, D);
    CompileOutput Out = GC.compile(*Naive, Opt);
    ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
    int Bodies = 0;
    for (const VariantResult &V : Out.Variants)
      Bodies += sharesABuild(V) ? 0 : 1;
    EXPECT_EQ(Finals.load(), Bodies);
    if (A != Algo::MV && A != Algo::TP) {
      EXPECT_EQ(Out.Search.Candidates, 80);
      EXPECT_EQ(Bodies, 20);
    }
  }
}

TEST(LayoutSearch, RemapCopiesDifferFromTheirBuildOnlyInTheRemap) {
  const std::map<std::string, BlockRemap> Family = familyRemaps();
  for (const auto &[A, N] : remapSearches()) {
    SCOPED_TRACE(algoInfo(A).Name);
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, A, N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    CompileOptions Opt;
    Opt.Jobs = 4;
    GpuCompiler GC(M, D);
    CompileOutput Out = GC.compile(*Naive, Opt);
    ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
    std::map<std::pair<int, int>, const VariantResult *> Identity;
    for (const VariantResult &V : Out.Variants)
      if (std::string(V.Layout) == "identity")
        Identity[{V.BlockMergeN, V.ThreadMergeM}] = &V;
    int Copies = 0;
    for (const VariantResult &V : Out.Variants) {
      if (!sharesABuild(V))
        continue;
      ++Copies;
      SCOPED_TRACE(strFormat("%s b%d t%d", V.Layout, V.BlockMergeN,
                             V.ThreadMergeM));
      const VariantResult *Sibling =
          Identity[{V.BlockMergeN, V.ThreadMergeM}];
      ASSERT_NE(Sibling, nullptr);
      ASSERT_TRUE(Family.count(V.Layout));
      const BlockRemap &Point = Family.at(V.Layout);
      LaunchConfig &L = V.Kernel->launch();
      const bool Legal = remapLegal(Point, L.GridDimX, L.GridDimY);
      EXPECT_EQ(L.Remap == Point, Legal);
      EXPECT_EQ(L.Remap.identity(), !Legal);
      L.Remap = BlockRemap();
      EXPECT_EQ(printKernel(*V.Kernel), printKernel(*Sibling->Kernel));
    }
    EXPECT_GT(Copies, 0);
  }
}
