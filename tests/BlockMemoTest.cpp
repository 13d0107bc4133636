//===-- tests/BlockMemoTest.cpp - per-block memo and lazy binding ---------===//
//
// Performance runs add each sampled block's statistics from a per-build
// memo when an earlier run of the same body already simulated that logical
// block (sim/BlockMemo.h), and bind every array to lazily zeroed pages.
// Neither may change a single bit of any PerfResult: every test here
// compares against runs on a fresh Simulator with no memo and no cache.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "cache/Serialize.h"
#include "core/Compiler.h"
#include "fuzz/KernelGen.h"
#include "parser/Parser.h"
#include "sim/BlockMemo.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

using namespace gpuc;

namespace {

std::string encoded(const PerfResult &R) {
  ByteWriter W;
  encodePerfResult(W, R);
  return W.buffer();
}

KernelFunction *parseOne(Module &M, const std::string &Source) {
  DiagnosticsEngine D;
  Parser P(Source, D);
  KernelFunction *K = P.parseKernel(M);
  EXPECT_NE(K, nullptr) << D.str();
  return K;
}

/// Searches \p Naive, then re-runs every variant the search measured (and,
/// for a pruned search, every probe) on a fresh Simulator without memo or
/// cache. Every PerfResult must match bit for bit.
SearchStats expectMemoTransparent(Module &M, const KernelFunction &Naive,
                                  const CompileOptions &Opt,
                                  const std::string &Label) {
  DiagnosticsEngine D;
  GpuCompiler GC(M, D);
  CompileOutput Out = GC.compile(Naive, Opt);
  EXPECT_NE(Out.Best, nullptr) << Label << "\n" << D.str() << Out.Log;
  Simulator Fresh(Opt.Device);
  Fresh.setInterpBackend(Opt.Interp);
  int Compared = 0;
  for (const VariantResult &V : Out.Variants) {
    if (!V.Kernel || V.LimitedBy || V.StaticallyPruned)
      continue;
    const std::string Where = strFormat("%s %s b%d t%d", Label.c_str(),
                                        V.Layout, V.BlockMergeN,
                                        V.ThreadMergeM);
    if (V.LowerBoundMs > 0) {
      DiagnosticsEngine RD;
      PerfResult Probe =
          Fresh.runPerformance(*V.Kernel, RD, PerfOptions::lowerBoundProbe());
      EXPECT_EQ(V.LowerBoundMs, Probe.TimeMs * 0.75) << Where;
    }
    if (V.Pruned)
      continue;
    DiagnosticsEngine RD;
    PerfResult Want = Fresh.runPerformance(*V.Kernel, RD, Opt.Perf);
    EXPECT_EQ(encoded(V.Perf), encoded(Want))
        << Where << ": " << V.Perf.TimeMs << " ms vs " << Want.TimeMs;
    ++Compared;
  }
  EXPECT_GT(Compared, 0) << Label;
  return Out.Search;
}

//===----------------------------------------------------------------------===//
// Memo vs no memo on the ten Table-1 kernels, every candidate simulated.
//===----------------------------------------------------------------------===//

/// Sizes at which every camping-prone kernel enumerates the layout family:
/// Figure-11 sizes for the vector engine, smaller ones for the scalar walk.
long long memoTestSize(Algo A, InterpBackend Engine) {
  const bool Scalar = Engine == InterpBackend::Scalar;
  switch (A) {
  case Algo::MM:
    return Scalar ? 512 : 1024;
  case Algo::STRSM:
    return Scalar ? 64 : 512;
  case Algo::VV:
    return Scalar ? 1LL << 18 : 1LL << 20;
  case Algo::RD:
    return Scalar ? 1LL << 19 : 1LL << 21;
  default:
    return Scalar ? 512 : 1024;
  }
}

using MemoCase = std::tuple<Algo, bool /*Gtx280*/, InterpBackend>;

class MemoTransparency : public ::testing::TestWithParam<MemoCase> {};

TEST_P(MemoTransparency, ExhaustiveSearchMatchesFreshRuns) {
  const auto [A, Gtx280, Engine] = GetParam();
  const long long N = memoTestSize(A, Engine);
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, A, N, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  CompileOptions Opt;
  Opt.Device = Gtx280 ? DeviceSpec::gtx280() : DeviceSpec::gtx8800();
  Opt.Interp = Engine;
  Opt.ExhaustiveSearch = true;
  Opt.Jobs = 1;
  SearchStats S = expectMemoTransparent(
      M, *Naive, Opt, strFormat("%s-%lld", algoInfo(A).Name, N));
  EXPECT_GT(S.LayoutPoints, 1);
  EXPECT_GT(S.BlocksSimulated, 0u);
  // Every Table-1 body is memo-eligible, so some remap point lands on
  // blocks its build already simulated.
  EXPECT_GT(S.BlocksReused, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, MemoTransparency,
    ::testing::Combine(::testing::ValuesIn(table1Algos()),
                       ::testing::Bool(),
                       ::testing::Values(InterpBackend::Vector,
                                         InterpBackend::Scalar)),
    [](const ::testing::TestParamInfo<MemoCase> &Info) {
      const bool Scalar = std::get<2>(Info.param) == InterpBackend::Scalar;
      return strFormat("%s_%s_%s", algoInfo(std::get<0>(Info.param)).Name,
                       std::get<1>(Info.param) ? "gtx280" : "gtx8800",
                       Scalar ? "scalar" : "vector");
    });

TEST(MemoTransparencySearch, PrunedSearchProbesAndRunsMatchFreshRuns) {
  for (Algo A : {Algo::MM, Algo::TP, Algo::RD}) {
    Module M;
    DiagnosticsEngine D;
    const long long N = memoTestSize(A, InterpBackend::Vector);
    KernelFunction *Naive = parseNaive(M, A, N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    CompileOptions Opt;
    Opt.Jobs = 1;
    expectMemoTransparent(M, *Naive, Opt, algoInfo(A).Name);
  }
}

TEST(MemoTransparencySearch, LayoutFuzzWindow) {
  int Searched = 0;
  for (unsigned Seed = 0; Seed < 40; ++Seed) {
    GeneratedKernel GK = KernelGen(Seed).generate();
    Module M;
    KernelFunction *Naive = parseOne(M, GK.Source);
    ASSERT_NE(Naive, nullptr) << GK.Source;
    for (InterpBackend Engine :
         {InterpBackend::Vector, InterpBackend::Scalar}) {
      CompileOptions Opt;
      Opt.Interp = Engine;
      Opt.ExhaustiveSearch = true;
      Opt.Jobs = 1;
      expectMemoTransparent(M, *Naive, Opt,
                            strFormat("seed %u (%s)", Seed,
                                      GK.Shape.c_str()));
    }
    ++Searched;
  }
  EXPECT_EQ(Searched, 40);
}

//===----------------------------------------------------------------------===//
// Eligibility and the whole-run fallback.
//===----------------------------------------------------------------------===//

TEST(BlockMemoEligibility, EveryTable1BodyQualifies) {
  for (Algo A : table1Algos()) {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, A, 256, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    EXPECT_TRUE(BlockMemo::appliesTo(*Naive)) << algoInfo(A).Name;
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Jobs = 1;
    CompileOutput Out = GC.compile(*Naive, Opt);
    ASSERT_NE(Out.Best, nullptr) << algoInfo(A).Name;
    EXPECT_TRUE(BlockMemo::appliesTo(*Out.Best)) << printKernel(*Out.Best);
  }
}

TEST(BlockMemoEligibility, RulesAdmitDataUsesAndRejectSteeringLoads) {
  Module M;
  // Branch on a loaded value, but the array is never written (rule D).
  KernelFunction *Branch = parseOne(M, "#pragma gpuc output(b)\n"
                                       "__global__ void k(float a[256], "
                                       "float b[256]) {\n"
                                       "  if (a[idx] > 0.5) {\n"
                                       "    b[idx] = 1;\n"
                                       "  }\n"
                                       "}\n");
  // Loaded values only flow into stored data (rule V), though the array
  // is read and written.
  KernelFunction *Update = parseOne(M, "#pragma gpuc output(a)\n"
                                       "__global__ void k(float a[256]) {\n"
                                       "  float v = a[idx];\n"
                                       "  a[idx] = v * 2;\n"
                                       "}\n");
  // A loaded index into an array the kernel also writes breaks both.
  KernelFunction *Scatter = parseOne(M, "#pragma gpuc output(a)\n"
                                        "__global__ void k(float a[256], "
                                        "float c[256]) {\n"
                                        "  int j = c[idx];\n"
                                        "  a[j] += 1;\n"
                                        "}\n");
  // So does a loop bound read from memory the kernel writes.
  KernelFunction *Bound = parseOne(M, "#pragma gpuc output(a)\n"
                                      "__global__ void k(float a[256]) {\n"
                                      "  int n = a[0];\n"
                                      "  for (int i = 0; i < n; i++) {\n"
                                      "    a[idx] = a[idx] + 1;\n"
                                      "  }\n"
                                      "}\n");
  ASSERT_TRUE(Branch && Update && Scatter && Bound);
  EXPECT_TRUE(BlockMemo::appliesTo(*Branch));
  EXPECT_TRUE(BlockMemo::appliesTo(*Update));
  EXPECT_FALSE(BlockMemo::appliesTo(*Scatter));
  EXPECT_FALSE(BlockMemo::appliesTo(*Bound));
}

/// A value-dependent branch on an array the kernel also writes: a block's
/// statistics depend on what earlier blocks of the same run stored, so
/// the search must take the whole-run path.
const char *const FeedbackKernel =
    "#pragma gpuc output(a)\n"
    "__global__ void feedback(float a[1024][1024], float b[1024][1024]) {\n"
    "  if (a[idy][idx] > 0.5) {\n"
    "    a[idy][idx] = b[idx][idy];\n"
    "  }\n"
    "  a[(idy + 1) % 1024][idx] = 1;\n"
    "}\n";

TEST(BlockMemoFallback, ValueDependentBranchOnWrittenArrayRunsWhole) {
  Module M;
  KernelFunction *Naive = parseOne(M, FeedbackKernel);
  ASSERT_NE(Naive, nullptr);
  EXPECT_FALSE(BlockMemo::appliesTo(*Naive));
  CompileOptions Opt;
  Opt.ExhaustiveSearch = true;
  Opt.Jobs = 1;
  SearchStats S = expectMemoTransparent(M, *Naive, Opt, "feedback");
  EXPECT_GT(S.LayoutPoints, 1) << "the family must be enumerated";
  EXPECT_GT(S.BlocksSimulated, 0u);
  EXPECT_EQ(S.BlocksReused, 0u);
}

//===----------------------------------------------------------------------===//
// Binding: a performance run reads every array as zero pages, and running
// its blocks one at a time adds up to one pass over the grid.
//===----------------------------------------------------------------------===//

TEST(PerfBinding, ArraysReadAsZero) {
  Module M;
  KernelFunction *K = parseOne(M, "#pragma gpuc output(b)\n"
                                  "__global__ void k(float a[64][64], "
                                  "float b[64][64]) {\n"
                                  "  if (a[idy][idx] > 0.5) {\n"
                                  "    b[idy][idx] = a[idy][idx] * 2;\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;
  PerfResult R = Sim.runPerformance(*K, D);
  ASSERT_TRUE(R.Valid) << D.str();
  // Zero inputs: the guard never holds, so nothing is stored.
  EXPECT_EQ(R.Stats.GlobalStoreHalfWarps, 0);
}

TEST(PerfBinding, BlockAtATimeMatchesOneGridPass) {
  // Every access is taken whatever the data, so the statistics do not
  // depend on what the arrays hold.
  Module M;
  KernelFunction *K = parseOne(M, "#pragma gpuc output(b)\n"
                                  "__global__ void k(float a[64][64], "
                                  "float b[64][64]) {\n"
                                  "  b[idy][idx] = a[idy][idx] * 2;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  const DeviceSpec Dev = DeviceSpec::gtx280();
  const long long NumBlocks = K->launch().numBlocks();
  // One cluster covers the whole grid, so the sampled statistics are the
  // plain whole-grid run's.
  PerfOptions Whole;
  Whole.SampleClusters = 1;
  Whole.BlocksPerCluster = static_cast<int>(NumBlocks);
  Whole.WorkPerBlockRef = 0;

  Simulator Sim(Dev);
  DiagnosticsEngine D;
  PerfResult R = Sim.runPerformance(*K, D, Whole);
  ASSERT_TRUE(R.Valid) << D.str();

  // The same grid through the interpreter in one pass, as a performance
  // run executed it before blocks ran one at a time.
  BufferSet Ref;
  Interpreter Interp(Dev, *K, Ref, D);
  ASSERT_TRUE(Interp.prepare());
  SimStats Stats;
  MemoryModel MM(Dev);
  InterpOptions IO;
  IO.CollectStats = true;
  IO.Stats = &Stats;
  IO.MM = &MM;
  IO.LoopSampleThreshold = Whole.LoopSampleThreshold;
  IO.LoopSampleCount = Whole.LoopSampleCount;
  Interp.runBlocks(0, NumBlocks, IO);
  ASSERT_TRUE(Interp.ok()) << D.str();
  PerfResult Want;
  Want.Valid = true;
  Want.Stats = Stats;
  Want.Occ = computeOccupancy(Dev, *K);
  Want.Timing = estimateTime(Dev, Want.Stats, Want.Occ, NumBlocks);
  Want.TimeMs = Want.Timing.TotalMs;
  EXPECT_GT(Want.Stats.GlobalStoreHalfWarps, 0);
  EXPECT_EQ(encoded(R), encoded(Want));
}

//===----------------------------------------------------------------------===//
// Reuse is real, and the lane count changes neither results nor counters.
//===----------------------------------------------------------------------===//

TEST(BlockMemoReuse, SerialMm1024CountsArePinned) {
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, Algo::MM, 1024, D);
  ASSERT_NE(Naive, nullptr) << D.str();
  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Jobs = 1;
  CompileOutput Out = GC.compile(*Naive, Opt);
  ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
  EXPECT_EQ(Out.Search.LayoutPoints, 4);
  EXPECT_EQ(Out.Search.BlocksSimulated, 130u);
  EXPECT_EQ(Out.Search.BlocksReused, 142u);
}

TEST(BlockMemoReuse, ParallelLanesShareTheMemoExactly) {
  for (auto [A, N] : {std::pair(Algo::MM, 128), std::pair(Algo::STRSM, 64),
                      std::pair(Algo::TP, 256)}) {
    auto Search = [&](int Jobs) {
      Module M;
      DiagnosticsEngine D;
      KernelFunction *Naive = parseNaive(M, A, N, D);
      EXPECT_NE(Naive, nullptr) << D.str();
      GpuCompiler GC(M, D);
      CompileOptions Opt;
      Opt.Jobs = Jobs;
      Opt.ExhaustiveSearch = true;
      CompileOutput Out = GC.compile(*Naive, Opt);
      std::vector<std::string> Results;
      for (const VariantResult &V : Out.Variants)
        Results.push_back(encoded(V.Perf));
      if (Out.Best)
        Results.push_back(printKernel(*Out.Best));
      return std::make_pair(Results, Out.Search);
    };
    const auto [Serial, SerialStats] = Search(1);
    const auto [Parallel, ParallelStats] = Search(4);
    EXPECT_EQ(ParallelStats.Jobs, 4);
    EXPECT_GT(SerialStats.BlocksReused, 0u) << algoInfo(A).Name;
    EXPECT_EQ(Serial, Parallel) << algoInfo(A).Name;
  }
}

TEST(BlockMemoReuse, LaneCountDoesNotChangeTheCounters) {
  // Runs that share a memo or a cache entry run in one task, in the order
  // of a one-lane search, so every lane count splits the sampled blocks
  // and the cache traffic exactly as one lane does.
  std::vector<uint64_t> Hits, Misses;
  for (int Jobs : {1, 2, 4, 4}) {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::MM, 1024, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = DeviceSpec::gtx280();
    Opt.Jobs = Jobs;
    CompileOutput Out = GC.compile(*Naive, Opt);
    ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
    EXPECT_EQ(Out.Search.Jobs, Jobs);
    EXPECT_EQ(Out.Search.BlocksSimulated, 130u) << Jobs << " lanes";
    EXPECT_EQ(Out.Search.BlocksReused, 142u) << Jobs << " lanes";
    Hits.push_back(Out.Search.CacheHits);
    Misses.push_back(Out.Search.CacheMisses);
  }
  for (size_t I = 1; I < Hits.size(); ++I) {
    EXPECT_EQ(Hits[I], Hits[0]);
    EXPECT_EQ(Misses[I], Misses[0]);
  }
}

/// A camping transpose that fails both memo rules: a loaded value steers
/// the branch (V), and `out` is read and written (D). Its pure-remap
/// copies share their build's body with no memo, so only the grouped
/// schedule keeps two runs of one body off two lanes at once.
const char *const GuardedTranspose =
    "#pragma gpuc output(out)\n"
    "__global__ void guarded_tp(float in[2048][2048], "
    "float out[2048][2048]) {\n"
    "  if (in[idy][idx] > 0) {\n"
    "    out[idx][idy] = out[idx][idy] + in[idy][idx];\n"
    "  }\n"
    "}\n";

TEST(BlockMemoReuse, CopiesOfAMemolessBodyRunInTheirBuildsTask) {
  for (bool Exhaustive : {false, true}) {
    auto Search = [&](int Jobs) {
      Module M;
      KernelFunction *Naive = parseOne(M, GuardedTranspose);
      EXPECT_NE(Naive, nullptr);
      EXPECT_FALSE(BlockMemo::appliesTo(*Naive));
      DiagnosticsEngine D;
      GpuCompiler GC(M, D);
      CompileOptions Opt;
      Opt.Jobs = Jobs;
      Opt.ExhaustiveSearch = Exhaustive;
      CompileOutput Out = GC.compile(*Naive, Opt);
      EXPECT_NE(Out.Best, nullptr) << D.str() << Out.Log;
      EXPECT_EQ(Out.Search.Jobs, Jobs);
      int Copies = 0;
      std::vector<std::string> Results;
      for (const VariantResult &V : Out.Variants) {
        const std::string Layout = V.Layout;
        Copies += Layout != "identity" && Layout != "offset";
        Results.push_back(strFormat("%s b%d t%d lb=%.17g ", V.Layout,
                                    V.BlockMergeN, V.ThreadMergeM,
                                    V.LowerBoundMs) +
                          encoded(V.Perf));
      }
      EXPECT_GT(Copies, 0) << "the search must make pure-remap copies";
      if (Out.Best)
        Results.push_back(printKernel(*Out.Best) +
                          strFormat("%.17g", Out.BestVariant.Perf.TimeMs));
      const SearchStats &S = Out.Search;
      Results.push_back(strFormat(
          "blocks %llu/%llu cache %llu/%llu",
          static_cast<unsigned long long>(S.BlocksSimulated),
          static_cast<unsigned long long>(S.BlocksReused),
          static_cast<unsigned long long>(S.CacheHits),
          static_cast<unsigned long long>(S.CacheMisses)));
      EXPECT_EQ(S.BlocksReused, 0u);
      return Results;
    };
    EXPECT_EQ(Search(4), Search(1))
        << (Exhaustive ? "exhaustive" : "pruned");
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The same on every Table-1 kernel and every example kernel, the BLAS-2
// pipeline included. Not part of the BlockMemoReuse suite, which also runs
// under ThreadSanitizer.
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// BlocksSimulated, BlocksReused, CacheHits and CacheMisses of one search
/// of \p Source: a single kernel, or a multi-kernel pipeline's program.
std::vector<uint64_t> searchCounters(const std::string &Source,
                                     const CompileOptions &Opt) {
  Module M;
  DiagnosticsEngine D;
  Parser P(Source, D);
  const std::vector<KernelFunction *> Stages = P.parseProgram(M);
  EXPECT_FALSE(Stages.empty()) << D.str();
  if (Stages.empty())
    return {};
  GpuCompiler GC(M, D);
  const SearchStats S =
      Stages.size() == 1
          ? GC.compile(*Stages.front(), Opt).Search
          : GC.compileProgram({Stages.begin(), Stages.end()}, Opt).Search;
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return {S.BlocksSimulated, S.BlocksReused, S.CacheHits, S.CacheMisses};
}

TEST(LaneCountCounters, Table1AndPipelineSearchesRepeatAtFourLanes) {
  // Small sizes keep the Table-1 searches to a few seconds; mm and strsm,
  // the costliest per element, run smaller still. The example kernels run
  // at the sizes their files declare.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (Algo A : table1Algos())
    Programs.emplace_back(
        algoInfo(A).Name,
        naiveSource(A, A == Algo::STRSM ? 64 : A == Algo::MM ? 128 : 256));
  std::vector<std::filesystem::path> Examples;
  for (const auto &E : std::filesystem::directory_iterator(
           GPUC_SOURCE_DIR "/examples/kernels"))
    if (E.path().extension() == ".cu")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  ASSERT_FALSE(Examples.empty());
  for (const std::filesystem::path &File : Examples)
    Programs.emplace_back(File.filename().string(), readFile(File.string()));
  for (const DeviceSpec &Dev : {DeviceSpec::gtx280(), DeviceSpec::gtx8800()})
    for (bool Exhaustive : {false, true})
      for (const auto &[Name, Source] : Programs) {
        CompileOptions Opt;
        Opt.Device = Dev;
        Opt.ExhaustiveSearch = Exhaustive;
        Opt.Jobs = 1;
        const std::vector<uint64_t> Serial = searchCounters(Source, Opt);
        Opt.Jobs = 4;
        EXPECT_EQ(searchCounters(Source, Opt), Serial)
            << Name << " on " << Dev.Name
            << (Exhaustive ? " (exhaustive)" : " (pruned)");
      }
}

} // namespace
