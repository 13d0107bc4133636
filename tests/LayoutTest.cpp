//===-- tests/LayoutTest.cpp - affine layout search regression pins -------===//
//
// The generalized affine layout search must rediscover the two legacy
// partition-camping remedies — the Figure 9b address-offset rotation and
// the diagonal block reordering — as model-driven winners: same decision,
// same modeled time, and byte-identical winner text as the legacy
// heuristic arm. On camping-free kernels the family must not fire.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "core/AffineLayout.h"
#include "core/Compiler.h"
#include "core/Report.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>
#include <atomic>
#include <map>
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
                   bool LayoutSearch, int Jobs = 1) {
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
  Opt.LayoutSearch = LayoutSearch;
  Opt.Jobs = Jobs;
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

} // namespace

//===----------------------------------------------------------------------===//
// Rediscovery pins: the model-driven search lands exactly where the legacy
// heuristic landed, with identical winner text and identical modeled time.
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, MvRediscoversAddressOffsetOnGtx280) {
  Snapshot Affine = runSearch(Algo::MV, 4096, DeviceSpec::gtx280(), true);
  Snapshot Legacy = runSearch(Algo::MV, 4096, DeviceSpec::gtx280(), false);
  ASSERT_TRUE(Affine.Ok && Legacy.Ok);
  // Decision pin: the rotation point wins the search.
  EXPECT_EQ(Affine.Layout, "offset");
  EXPECT_EQ(Affine.Stats.LayoutWins, 1);
  // 1-D family: identity, offset rotation, constant shift.
  EXPECT_EQ(Affine.Stats.LayoutPoints, 3);
  EXPECT_TRUE(Affine.Camping.Detected);
  EXPECT_TRUE(Affine.Camping.AppliedOffset);
  // Address-expression pin: the transformed index is the legacy rotation
  // (i + (PartitionBytes/4)*bidx) mod RowElems.
  EXPECT_NE(Affine.BestText.find("(64*bidx)"), std::string::npos)
      << Affine.BestText;
  EXPECT_NE(Affine.BestText.find("%4096)"), std::string::npos)
      << Affine.BestText;
  // The legacy heuristic produced the same kernel at the same modeled
  // time — the generalized search subsumes it, byte for byte.
  EXPECT_EQ(Affine.BestText, Legacy.BestText);
  EXPECT_EQ(Affine.BestMs, Legacy.BestMs);
  EXPECT_EQ(Affine.BestN, Legacy.BestN);
  EXPECT_EQ(Affine.BestM, Legacy.BestM);
}

TEST(LayoutSearch, MvRediscoversOffsetForPartialCampingOnGtx8800) {
  // 3072-row mv on the 6-partition device: a partial-coverage camp (the
  // gcd generalization), still best fixed by the rotation.
  Snapshot Affine = runSearch(Algo::MV, 3072, DeviceSpec::gtx8800(), true);
  Snapshot Legacy = runSearch(Algo::MV, 3072, DeviceSpec::gtx8800(), false);
  ASSERT_TRUE(Affine.Ok && Legacy.Ok);
  EXPECT_EQ(Affine.Layout, "offset");
  EXPECT_TRUE(Affine.Camping.AppliedOffset);
  EXPECT_EQ(Affine.BestText, Legacy.BestText);
  EXPECT_EQ(Affine.BestMs, Legacy.BestMs);
}

TEST(LayoutSearch, TransposeRediscoversDiagonalOnGtx280) {
  Snapshot Affine = runSearch(Algo::TP, 2048, DeviceSpec::gtx280(), true);
  Snapshot Legacy = runSearch(Algo::TP, 2048, DeviceSpec::gtx280(), false);
  ASSERT_TRUE(Affine.Ok && Legacy.Ok);
  EXPECT_EQ(Affine.Layout, "diagonal");
  EXPECT_EQ(Affine.Stats.LayoutWins, 1);
  // 2-D square family: identity, diagonal, swap, skew-x, skew-y, shift.
  EXPECT_EQ(Affine.Stats.LayoutPoints, 6);
  EXPECT_TRUE(Affine.Camping.Detected);
  EXPECT_TRUE(Affine.Camping.AppliedDiagonal);
  EXPECT_NE(Affine.BestText.find("diagonal block reordering"),
            std::string::npos)
      << Affine.BestText;
  EXPECT_EQ(Affine.BestText, Legacy.BestText);
  EXPECT_EQ(Affine.BestMs, Legacy.BestMs);
}

//===----------------------------------------------------------------------===//
// Must-not-fire pins: on kernels where the legacy pass never fired, the
// identity must win and the emitted winner must stay byte-identical.
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, MustNotFireOnMatrixMultiply) {
  Snapshot Affine = runSearch(Algo::MM, 512, DeviceSpec::gtx280(), true);
  Snapshot Legacy = runSearch(Algo::MM, 512, DeviceSpec::gtx280(), false);
  ASSERT_TRUE(Affine.Ok && Legacy.Ok);
  EXPECT_EQ(Affine.Layout, "identity");
  EXPECT_EQ(Affine.Stats.LayoutWins, 0);
  EXPECT_EQ(Affine.BestText, Legacy.BestText);
  EXPECT_EQ(Affine.BestMs, Legacy.BestMs);
  EXPECT_EQ(Affine.BestN, Legacy.BestN);
  EXPECT_EQ(Affine.BestM, Legacy.BestM);
}

TEST(LayoutSearch, MustNotFireOnReduction) {
  Snapshot Affine = runSearch(Algo::RD, 4096, DeviceSpec::gtx280(), true);
  Snapshot Legacy = runSearch(Algo::RD, 4096, DeviceSpec::gtx280(), false);
  ASSERT_TRUE(Affine.Ok && Legacy.Ok);
  EXPECT_EQ(Affine.Layout, "identity");
  EXPECT_EQ(Affine.Stats.LayoutWins, 0);
  EXPECT_EQ(Affine.BestText, Legacy.BestText);
  EXPECT_EQ(Affine.BestMs, Legacy.BestMs);
}

//===----------------------------------------------------------------------===//
// Search-surface structure
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, CandidateGridIsLayoutsTimesMergeFactors) {
  Snapshot S = runSearch(Algo::TP, 2048, DeviceSpec::gtx280(), true);
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
  Snapshot S = runSearch(Algo::TP, 2048, DeviceSpec::gtx280(), true);
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

TEST(LayoutSearch, LegacyModeKeepsLegacyReportShape) {
  Snapshot S = runSearch(Algo::TP, 2048, DeviceSpec::gtx280(), false);
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.Stats.LayoutPoints, 1);
  EXPECT_EQ(S.DesignReport.find("layout="), std::string::npos)
      << S.DesignReport;
}

//===----------------------------------------------------------------------===//
// Determinism: the layout dimension keeps the search's lane-count
// invariance (same winner, same variant table, same log).
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, JobsInvariance) {
  for (Algo A : {Algo::MV, Algo::TP}) {
    const long long N = A == Algo::MV ? 4096 : 2048;
    Snapshot Serial = runSearch(A, N, DeviceSpec::gtx280(), true, 1);
    Snapshot Parallel = runSearch(A, N, DeviceSpec::gtx280(), true, 8);
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
  for (bool LayoutSearch : {true, false}) {
    for (const auto &[A, N] : remapSearches()) {
      SCOPED_TRACE(std::string(algoInfo(A).Name) +
                   (LayoutSearch ? " layout" : " legacy"));
      Module M;
      DiagnosticsEngine D;
      KernelFunction *Naive = parseNaive(M, A, N, D);
      ASSERT_NE(Naive, nullptr) << D.str();
      std::atomic<int> Finals{0};
      CompileOptions Opt;
      Opt.LayoutSearch = LayoutSearch;
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
      if (!LayoutSearch) {
        EXPECT_EQ(Bodies, Out.Search.Candidates);
      } else if (A != Algo::MV && A != Algo::TP) {
        EXPECT_EQ(Out.Search.Candidates, 80);
        EXPECT_EQ(Bodies, 20);
      }
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

//===----------------------------------------------------------------------===//
// Cache-key participation: a layout-search winner must never be served to
// a legacy-heuristic caller (and vice versa).
//===----------------------------------------------------------------------===//

TEST(LayoutSearch, CacheKeyDistinguishesLayoutMode) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MV, 4096, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  CompileOptions On;
  CompileOptions Off;
  Off.LayoutSearch = false;
  EXPECT_NE(compileCacheKey(*Naive, On), compileCacheKey(*Naive, Off));
}
