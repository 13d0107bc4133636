//===-- tests/ReproductionTest.cpp - the paper's evaluation, asserted -----===//
//
// Every table and figure of the paper's evaluation (Table 1, Figures
// 10-16, the Section 2 bandwidth table and the Section 7 FFT study), plus
// the substrate-model ablations, computed on the simulator with the shape
// claims EXPERIMENTS.md makes asserted. Absolute numbers are not expected
// to match silicon; orderings, crossovers and rough factors are. Each case
// prints its table: run the binary for all of them, or pass
// --gtest_filter=Reproduction.Figure13 for one.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/CublasLike.h"
#include "baselines/FftKernels.h"
#include "baselines/NaiveKernels.h"
#include "cache/DiskCache.h"
#include "core/Compiler.h"
#include "core/ThreadMerge.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

using namespace gpuc;

namespace {

DeviceSpec device(bool Gtx280) {
  return Gtx280 ? DeviceSpec::gtx280() : DeviceSpec::gtx8800();
}

/// Simulated time of \p K on \p Device. With \p Cache, structurally
/// identical repeat measurements are memoized.
PerfResult measure(const DeviceSpec &Device, const KernelFunction &K,
                   SimCache *Cache = nullptr) {
  Simulator Sim(Device);
  Sim.setCache(Cache);
  DiagnosticsEngine D;
  return Sim.runPerformance(K, D);
}

/// Parses and measures the naive kernel of \p A at size \p N.
PerfResult measureNaive(Module &M, const DeviceSpec &Device, Algo A,
                        long long N) {
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  return K ? measure(Device, *K) : PerfResult();
}

/// Full compile, design-space search included, of the naive kernel of
/// \p A at size \p N; \p Opt's Device is overwritten with \p Device.
CompileOutput compileBest(Module &M, const DeviceSpec &Device, Algo A,
                          long long N, CompileOptions Opt = CompileOptions()) {
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  if (!K)
    return CompileOutput();
  GpuCompiler GC(M, D);
  Opt.Device = Device;
  return GC.compile(*K, Opt);
}

double geomean(const std::vector<double> &Xs) {
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return Xs.empty() ? 0 : std::exp(LogSum / static_cast<double>(Xs.size()));
}

void printTitle(const char *Title) { std::printf("\n=== %s ===\n", Title); }

/// Figure 11's input size for each Table-1 algorithm.
long long figure11Size(Algo A) {
  switch (A) {
  case Algo::RD:
    return 1 << 21;
  case Algo::VV:
    return 1 << 20;
  case Algo::STRSM:
    return 512;
  default:
    return 1024;
  }
}

/// One Figure-11 search: a Table-1 algorithm's naive kernel against its
/// design-space winner on one device.
struct Search {
  Algo A;
  bool Gtx280;
  double NaiveMs = 0;
  /// The winner measured afresh, and as the search recorded it.
  double BestMs = 0, SearchedMs = 0;
  int BlockN = 1, ThreadM = 1;
};

/// The twenty searches behind Figures 11 and 12 (the ten algorithms on
/// GTX 8800, then on GTX 280), run once per process.
const std::vector<Search> &figure11Searches() {
  static const std::vector<Search> Rows = [] {
    std::vector<Search> Rows;
    for (bool Gtx280 : {false, true})
      for (Algo A : table1Algos()) {
        const DeviceSpec Dev = device(Gtx280);
        Module M;
        Search S{A, Gtx280};
        S.NaiveMs = measureNaive(M, Dev, A, figure11Size(A)).TimeMs;
        CompileOutput Out = compileBest(M, Dev, A, figure11Size(A));
        if (Out.Best)
          S.BestMs = measure(Dev, *Out.Best).TimeMs;
        S.SearchedMs = Out.BestVariant.Perf.TimeMs;
        S.BlockN = Out.BestVariant.BlockMergeN;
        S.ThreadM = Out.BestVariant.ThreadMergeM;
        Rows.push_back(S);
      }
    return Rows;
  }();
  return Rows;
}

} // namespace

TEST(Reproduction, Table1) {
  // Table 1: the ten algorithms and the lines of code of each naive
  // kernel, the measure of how little the programmer writes. The dialect
  // elides headers and boilerplate, so every kernel is shorter than the
  // paper's.
  printTitle("Table 1: naive-kernel lines of code (ours / paper)");
  EXPECT_EQ(table1Algos().size(), 10u);
  for (Algo A : table1Algos()) {
    const AlgoInfo &Info = algoInfo(A);
    const int Loc = countCodeLines(naiveSource(A, 1024));
    std::printf("%-12s %-34s %3d / %d\n", Info.Name, Info.PaperSizes, Loc,
                Info.PaperNaiveLoc);
    EXPECT_GT(Loc, 0) << Info.Name;
    EXPECT_LT(Loc, Info.PaperNaiveLoc) << Info.Name;
  }
}

TEST(Reproduction, Figure10) {
  // Figure 10: mm on GTX 280 over merged thread blocks (along X) and
  // merged threads (along Y). Performance rises with the thread merge at
  // every block factor until the register file runs out at 32 x 32.
  printTitle("Figure 10: mm design space on GTX 280 (GFLOPS)");
  const DeviceSpec Dev = DeviceSpec::gtx280();
  for (long long N : {1024LL, 2048LL}) {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::MM, N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = Dev;
    for (int BlockN : {8, 16, 32}) {
      std::printf("mm %lld blocks=%-2d", N, BlockN);
      double Prev = 0;
      for (int ThreadM : {4, 8, 16, 32}) {
        KernelFunction *V = GC.compileVariant(*Naive, Opt, BlockN, ThreadM);
        PerfResult R;
        if (V && !computeOccupancy(Dev, *V).Infeasible)
          R = measure(Dev, *V);
        const double Gflops = R.gflops(algoFlops(Algo::MM, N));
        std::printf("  threads=%-2d %s", ThreadM,
                    R.Valid ? strFormat("%6.1f", Gflops).c_str()
                            : "infeasible");
        if (BlockN == 32 && ThreadM == 32) {
          EXPECT_FALSE(R.Valid) << "mm " << N << ": b32 x t32 is feasible";
          continue;
        }
        EXPECT_TRUE(R.Valid) << "mm " << N << " b" << BlockN << " t"
                             << ThreadM;
        EXPECT_GT(Gflops, Prev)
            << "mm " << N << " b" << BlockN << " t" << ThreadM;
        Prev = Gflops;
      }
      std::printf("\n");
    }
  }
}

TEST(Reproduction, Figure10SearchConfigurationsAgree) {
  // The Figure-10 grid searched six ways must pick one winner: the
  // exhaustive serial search with the original fixed-count sampling, the
  // pruned search on one and on eight lanes, eight lanes on a warm memory
  // cache, and two processes' worth of disk cache, cold then warm. The
  // warm disk run must replay the cold one's winner text byte for byte.
  struct Config {
    const char *Name;
    int Jobs;
    bool Exhaustive, WarmMemory, Disk;
  };
  const Config Configs[] = {
      {"exhaustive_jobs1", 1, true, false, false},
      {"pruned_jobs1", 1, false, false, false},
      {"pruned_jobs8", 8, false, false, false},
      {"pruned_jobs8_warm", 8, false, true, false},
      {"disk_cold_proc1", 8, false, false, true},
      {"disk_warm_proc2", 8, false, false, true},
  };
  struct Winner {
    int BlockN = 0, ThreadM = 0;
    std::string Text;
  };
  SimCache Warm;
  const std::string Dir = DiskCache::makeTempDir("gpuc-repro-search");
  auto Run = [&](const Config &C) {
    // Each disk configuration opens its own DiskCache over the shared
    // directory, as a separate process would.
    std::unique_ptr<DiskCache> Disk;
    if (C.Disk)
      Disk = std::make_unique<DiskCache>(Dir);
    CompileOptions Opt;
    Opt.Jobs = C.Jobs;
    Opt.ExhaustiveSearch = C.Exhaustive;
    if (C.Exhaustive)
      Opt.Perf.WorkPerBlockRef = 0;
    Opt.Cache = C.WarmMemory ? &Warm : nullptr;
    Opt.Disk = Disk.get();
    Module M;
    CompileOutput Out =
        compileBest(M, DeviceSpec::gtx280(), Algo::MM, 1024, Opt);
    Winner W{Out.BestVariant.BlockMergeN, Out.BestVariant.ThreadMergeM,
             Out.Best ? printKernel(*Out.Best) : std::string()};
    std::printf("%-18s b%-2d t%-2d  simulated=%d pruned=%d disk_hits=%llu\n",
                C.Name, W.BlockN, W.ThreadM, Out.Search.Simulated,
                Out.Search.Pruned,
                static_cast<unsigned long long>(Out.Search.DiskHits));
    return W;
  };

  printTitle("Figure 10 search: mm 1024 on GTX 280, six configurations");
  std::vector<Winner> Winners;
  for (const Config &C : Configs) {
    if (C.WarmMemory)
      Run({"(warming)", C.Jobs, C.Exhaustive, true, false});
    Winners.push_back(Run(C));
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  for (size_t I = 1; I < Winners.size(); ++I) {
    EXPECT_EQ(Winners[I].BlockN, Winners[0].BlockN) << Configs[I].Name;
    EXPECT_EQ(Winners[I].ThreadM, Winners[0].ThreadM) << Configs[I].Name;
  }
  EXPECT_FALSE(Winners[4].Text.empty());
  EXPECT_EQ(Winners[4].Text, Winners[5].Text)
      << "the warm disk run changed the winner text";
}

TEST(Reproduction, Figure11) {
  // Figure 11: speedup of the optimized kernel over the naive one. The
  // paper's geomeans are 15.1x on GTX 8800 and 7.9x on GTX 280: the newer
  // GPU benefits less because its relaxed coalescer makes naive kernels
  // stronger.
  printTitle("Figure 11: speedup over naive");
  std::vector<double> Speedups[2];
  for (const Search &S : figure11Searches()) {
    const double X = S.NaiveMs / S.BestMs;
    std::printf("%-12s %-8s %7.2fx\n", algoInfo(S.A).Name,
                device(S.Gtx280).Name.c_str(), X);
    EXPECT_GT(X, 1.0) << algoInfo(S.A).Name << " on "
                      << device(S.Gtx280).Name;
    Speedups[S.Gtx280].push_back(X);
  }
  const double G8800 = geomean(Speedups[0]), G280 = geomean(Speedups[1]);
  std::printf("GEOMEAN GTX8800 %.2fx (paper 15.1x), GTX280 %.2fx (paper "
              "7.9x)\n",
              G8800, G280);
  EXPECT_GT(G8800, G280);
}

TEST(Reproduction, Figure12) {
  // Figure 12: each compilation step's contribution to the geomean
  // speedup, stacked naive -> +coalescing -> +merge -> +prefetch ->
  // +partition -> +layout. Merge adds the most; prefetch adds little
  // (the registers are already spent); partition-camping elimination
  // matters more on GTX 280. +partition applies the paper's one-shot
  // camping fix at the winner's merge factors; +layout is the search
  // winner over the whole affine family, so it can only hold or improve
  // on +partition, and it is Figure 11's speedup.
  CompileOptions Coalescing;
  Coalescing.Merge = Coalescing.Prefetch = Coalescing.PartitionElim = false;
  CompileOptions Merge = Coalescing;
  Merge.Merge = true;
  CompileOptions Prefetch = Merge;
  Prefetch.Prefetch = true;
  struct Stage {
    const char *Name;
    CompileOptions Opt;
    bool AtWinner; // at the search winner's merge factors, else at 1 x 1
  };
  const Stage Stages[] = {{"+coalescing", Coalescing, false},
                          {"+merge", Merge, true},
                          {"+prefetch", Prefetch, true},
                          {"+partition", CompileOptions(), true}};
  enum { Coal, Mrg, Pref, Part, Layout, Fig11, NumCols };

  // Speedups over naive, per device and column. One cache serves every
  // prefix: a stage often compiles to the previous stage's kernel.
  std::vector<double> X[2][NumCols];
  SimCache Cache;
  for (const Search &S : figure11Searches()) {
    const DeviceSpec Dev = device(S.Gtx280);
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, S.A, figure11Size(S.A), D);
    ASSERT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    for (int I = Coal; I <= Part; ++I) {
      CompileOptions Opt = Stages[I].Opt;
      Opt.Device = Dev;
      KernelFunction *V =
          GC.compileVariant(*Naive, Opt, Stages[I].AtWinner ? S.BlockN : 1,
                            Stages[I].AtWinner ? S.ThreadM : 1);
      ASSERT_NE(V, nullptr) << algoInfo(S.A).Name << Stages[I].Name;
      const PerfResult R = measure(Dev, *V, &Cache);
      ASSERT_TRUE(R.Valid) << algoInfo(S.A).Name << Stages[I].Name;
      X[S.Gtx280][I].push_back(S.NaiveMs / R.TimeMs);
    }
    X[S.Gtx280][Layout].push_back(S.NaiveMs / S.SearchedMs);
    X[S.Gtx280][Fig11].push_back(S.NaiveMs / S.BestMs);
  }

  printTitle("Figure 12: geomean speedup over naive after each step");
  std::printf("%-12s %8s %8s\n", "step", "GTX8800", "GTX280");
  double G[2][NumCols];
  for (int Dev : {0, 1})
    for (int I = 0; I < NumCols; ++I)
      G[Dev][I] = geomean(X[Dev][I]);
  for (int I = Coal; I <= Layout; ++I)
    std::printf("%-12s %7.2fx %7.2fx\n",
                I == Layout ? "+layout" : Stages[I].Name, G[0][I], G[1][I]);

  for (int Dev : {0, 1}) {
    const char *Name = Dev ? "GTX280" : "GTX8800";
    const double *Y = G[Dev];
    const double MergeStep = Y[Mrg] - Y[Coal];
    EXPECT_GT(MergeStep, Y[Coal] - 1.0) << Name;
    EXPECT_GT(MergeStep, Y[Pref] - Y[Mrg]) << Name;
    EXPECT_GT(MergeStep, Y[Part] - Y[Pref]) << Name;
    EXPECT_GT(MergeStep, Y[Layout] - Y[Part]) << Name;
    EXPECT_LT(std::abs(Y[Pref] / Y[Mrg] - 1.0), 0.01) << Name;
    EXPECT_GE(Y[Layout], Y[Part]) << Name;
    EXPECT_DOUBLE_EQ(Y[Layout], Y[Fig11]) << Name;
  }
  EXPECT_GT(G[1][Part] / G[1][Pref], G[0][Part] / G[0][Pref])
      << "partition elimination gains less on GTX 280 than on GTX 8800";
}

TEST(Reproduction, Figure13) {
  // Figure 13: the compiler's output against CUBLAS-2.2-like library
  // kernels on GTX 280. The paper wins on tmv/mv/vv/strsm, is within 2%
  // on mm/rd, and leads by 26-33% in the geomean. Ours is never slower,
  // strictly faster except on vv (an elementwise product is purely
  // bandwidth-bound here), and within 10% on mm.
  printTitle("Figure 13: ours vs CUBLAS-like on GTX 280 (GFLOPS)");
  const DeviceSpec Dev = DeviceSpec::gtx280();
  const std::pair<Algo, std::vector<long long>> Rows[] = {
      {Algo::TMV, {1024, 2048}},      {Algo::MM, {1024, 2048}},
      {Algo::MV, {1024, 2048}},       {Algo::VV, {1 << 18, 1 << 20}},
      {Algo::RD, {1 << 20, 1 << 22}}, {Algo::STRSM, {512, 1024}}};
  std::vector<double> Ratios;
  for (const auto &[A, Sizes] : Rows)
    for (long long N : Sizes) {
      Module M;
      DiagnosticsEngine D;
      CompileOutput Ours = compileBest(M, Dev, A, N);
      KernelFunction *Lib = cublasLikeKernel(M, A, N, D);
      ASSERT_TRUE(Ours.Best && Lib) << algoInfo(A).Name << " " << N;
      const PerfResult RO = measure(Dev, *Ours.Best), RL = measure(Dev, *Lib);
      ASSERT_TRUE(RO.Valid && RL.Valid) << algoInfo(A).Name << " " << N;
      const double Ratio = RL.TimeMs / RO.TimeMs;
      std::printf("%-6s n=%-8lld ours %8.3f  cublas %8.3f  %.3fx\n",
                  algoInfo(A).Name, N, RO.gflops(algoFlops(A, N)),
                  RL.gflops(algoFlops(A, N)), Ratio);
      Ratios.push_back(Ratio);
      EXPECT_GE(Ratio, 1.0) << algoInfo(A).Name << " " << N;
      if (A != Algo::VV) {
        EXPECT_GT(Ratio, 1.0) << algoInfo(A).Name << " " << N;
      }
      if (A == Algo::MM) {
        EXPECT_LT(Ratio, 1.10) << "mm " << N;
      }
    }
  std::printf("GEOMEAN ours/cublas %.3fx (paper 1.26-1.33x)\n",
              geomean(Ratios));
}

TEST(Reproduction, Figure14) {
  // Figure 14: vectorization on the complex reduction. The naive kernel
  // reads A[2*idx] and A[2*idx+1]; vectorized, the pair is one coalesced
  // float2 load straight into registers, while the unvectorized winner
  // stages through shared memory.
  printTitle("Figure 14: crd with and without vectorization on GTX 280");
  const DeviceSpec Dev = DeviceSpec::gtx280();
  for (long long N : {1LL << 20, 1LL << 22, 1LL << 24}) {
    PerfResult R[2]; // without, with vectorization
    for (bool Vec : {false, true}) {
      Module M;
      CompileOptions Opt;
      Opt.Vectorize = Vec;
      CompileOutput Out = compileBest(M, Dev, Algo::CRD, N, Opt);
      ASSERT_NE(Out.Best, nullptr) << "crd " << N;
      R[Vec] = measure(Dev, *Out.Best);
      ASSERT_TRUE(R[Vec].Valid) << "crd " << N;
      std::printf("crd n=%-9lld %-17s %8.3f ms %6.2f GB/s  shared "
                  "half-warp accesses %.0f\n",
                  N, Vec ? "optimized" : "optimized_wo_vec", R[Vec].TimeMs,
                  R[Vec].effectiveBandwidthGBs(algoUsefulBytes(Algo::CRD, N)),
                  R[Vec].Stats.SharedAccessHalfWarps);
    }
    std::printf("crd n=%-9lld vectorization gains %.2fx\n", N,
                R[0].TimeMs / R[1].TimeMs);
    EXPECT_LT(R[1].TimeMs, R[0].TimeMs) << "crd " << N;
    EXPECT_EQ(R[1].Stats.SharedAccessHalfWarps, 0) << "crd " << N;
    EXPECT_GT(R[0].Stats.SharedAccessHalfWarps, 0) << "crd " << N;
  }
}

TEST(Reproduction, Figure15) {
  // Figure 15: transpose bandwidth. The compiled kernel matches the SDK
  // transpose with diagonal block reordering ("SDK new"; both pad the
  // tile and reorder the blocks) and beats the previous SDK version.
  // Under ASan, this case and Figure 16 also check that each winner's
  // Module outlives its measurement (once a heap-use-after-free).
  printTitle("Figure 15: transpose effective bandwidth (GB/s)");
  for (bool Gtx280 : {true, false})
    for (long long N : {1024LL, 2048LL, 3072LL, 4096LL}) {
      const DeviceSpec Dev = device(Gtx280);
      Module M;
      CompileOutput Out = compileBest(M, Dev, Algo::TP, N);
      const KernelFunction *Kernels[] = {Out.Best, sdkTransposeNew(M, N),
                                         sdkTransposePrev(M, N)};
      double GBs[3];
      for (int I = 0; I < 3; ++I) {
        ASSERT_NE(Kernels[I], nullptr) << "tp " << N;
        const PerfResult R = measure(Dev, *Kernels[I]);
        ASSERT_TRUE(R.Valid) << "tp " << N;
        GBs[I] = R.effectiveBandwidthGBs(algoUsefulBytes(Algo::TP, N));
      }
      std::printf("tp %-4lld %-7s optimized %6.2f  SDK new %6.2f  SDK prev "
                  "%6.2f\n",
                  N, Dev.Name.c_str(), GBs[0], GBs[1], GBs[2]);
      EXPECT_DOUBLE_EQ(GBs[0], GBs[1]) << "tp " << N << " " << Dev.Name;
      EXPECT_GT(GBs[0], GBs[2]) << "tp " << N << " " << Dev.Name;
    }
}

TEST(Reproduction, Figure16) {
  // Figure 16: mv without partition-camping elimination ("Opti_PC") and
  // fully optimized, against naive and the library. mv's thread blocks
  // are 1-D, so the fix is an address offset per block, which spreads
  // the 2k and 4k grids over every partition. At 1k the grid is too small
  // to spread and the search keeps Opti_PC's kernel.
  printTitle("Figure 16: mv on GTX 280 (GFLOPS, camping factor)");
  const DeviceSpec Dev = DeviceSpec::gtx280();
  enum { Naive, OptiPC, Optimized, Cublas };
  const char *Names[] = {"naive", "Opti_PC", "optimized", "CUBLAS-like"};
  for (long long N : {1024LL, 2048LL, 4096LL}) {
    Module M;
    DiagnosticsEngine D;
    CompileOptions NoCampingFix;
    NoCampingFix.PartitionElim = false;
    CompileOutput Outs[] = {compileBest(M, Dev, Algo::MV, N, NoCampingFix),
                            compileBest(M, Dev, Algo::MV, N)};
    const KernelFunction *Kernels[] = {parseNaive(M, Algo::MV, N, D),
                                       Outs[0].Best, Outs[1].Best,
                                       cublasLikeKernel(M, Algo::MV, N, D)};
    PerfResult R[4];
    std::printf("mv n=%-5lld", N);
    for (int I = Naive; I <= Cublas; ++I) {
      ASSERT_NE(Kernels[I], nullptr) << Names[I] << " " << N;
      R[I] = measure(Dev, *Kernels[I]);
      ASSERT_TRUE(R[I].Valid) << Names[I] << " " << N;
      std::printf("  %s %.2f (%.3f)", Names[I],
                  R[I].gflops(algoFlops(Algo::MV, N)),
                  R[I].Timing.CampingFactor);
    }
    std::printf("\n");
    if (N == 1024) {
      EXPECT_DOUBLE_EQ(R[Optimized].TimeMs, R[OptiPC].TimeMs);
      continue;
    }
    EXPECT_LT(R[Optimized].TimeMs, R[Cublas].TimeMs) << "mv " << N;
    EXPECT_LT(R[Optimized].TimeMs, R[OptiPC].TimeMs) << "mv " << N;
    EXPECT_NEAR(R[Optimized].Timing.CampingFactor, 1.0, 0.01) << "mv " << N;
  }
}

TEST(Reproduction, Section2Bandwidth) {
  // Section 2: sustained streaming bandwidth by access type over 128 MB,
  // 98 / 101 / 79 GB/s for float / float2 / float4 on GTX 280 and
  // 71 / 98 / 101 on HD 5870. The model's class bandwidths are calibrated
  // from this table; the case checks that the whole kernel-to-timing path
  // reproduces it through simulated traffic.
  printTitle("Section 2: sustained bandwidth by access type (GB/s)");
  const long long Floats = 32LL << 20;
  const struct {
    DeviceSpec Dev;
    double Paper[3]; // float, float2, float4; 0 when the paper has none
  } Rows[] = {{DeviceSpec::gtx280(), {98, 101, 79}},
              {DeviceSpec::gtx8800(), {0, 0, 0}},
              {DeviceSpec::hd5870(), {71, 98, 101}}};
  for (const auto &Row : Rows) {
    double GBs[3];
    for (int I = 0; I < 3; ++I) {
      const int Width = 1 << I;
      Module M;
      const PerfResult R =
          measure(Row.Dev, *bandwidthCopyKernel(M, Width, Floats));
      ASSERT_TRUE(R.Valid) << Row.Dev.Name << " width " << Width;
      GBs[I] = R.effectiveBandwidthGBs(2.0 * 4.0 * Floats);
      if (Row.Paper[I] > 0) {
        EXPECT_NEAR(GBs[I], Row.Paper[I], 0.02 * Row.Paper[I])
            << Row.Dev.Name << " width " << Width;
      }
    }
    std::printf("%-7s float %6.2f  float2 %6.2f  float4 %6.2f\n",
                Row.Dev.Name.c_str(), GBs[0], GBs[1], GBs[2]);
    if (Row.Dev.Name == "GTX280") {
      // float2 slightly beats float; float4 is slower than both.
      EXPECT_GT(GBs[1], GBs[0]);
      EXPECT_GT(GBs[0], GBs[2]);
    }
  }
}

TEST(Reproduction, Section7Fft) {
  // Section 7's algorithm exploration on GTX 280: naive 2-point steps
  // (paper 24 GFLOPS) < a CUFFT-2.2-like fixed configuration (26) <
  // compiler-merged 2-point (41) < naive 8-point steps (44) <
  // compiler-optimized 8-point (59). A better algorithm plus the
  // compiler beats both. 2^18 points instead of 2^20 keep the radix-8
  // stage count integral. Our thread merge does not fuse butterfly
  // stages in registers as the paper's did, so merged radix-2 only ties
  // the library configuration.
  const long long N = 1 << 18;
  // Variant: radix, block width (0 keeps the naive launch), thread merge.
  const struct {
    const char *Name;
    int Radix, BlockX, Merge;
    double Paper;
  } Variants[] = {{"fft2 naive (2-pt steps)", 2, 0, 1, 24},
                  {"CUFFT-2.2-like (radix-2)", 2, 128, 1, 26},
                  {"fft2 + thread merge x4", 2, 128, 4, 41},
                  {"fft8 naive (8-pt steps)", 8, 0, 1, 44},
                  {"fft8 + compiler merge", 8, 128, 2, 59}};
  printTitle("Section 7: 1-D FFT, 2^18 points on GTX 280 (GFLOPS)");
  double Gflops[5];
  for (int I = 0; I < 5; ++I) {
    const auto &V = Variants[I];
    Module M;
    DiagnosticsEngine D;
    KernelFunction *K =
        V.Radix == 2 ? parseFft2(M, N, D) : parseFft8(M, N, D);
    ASSERT_NE(K, nullptr) << D.str();
    if (V.BlockX) {
      K->launch().BlockDimX = V.BlockX;
      K->launch().GridDimX = K->workDomainX() / V.BlockX;
    }
    if (V.Merge > 1) {
      ASSERT_TRUE(threadMerge(*K, M.context(), V.Merge, /*AlongY=*/false));
    }
    const PerfResult R = measure(DeviceSpec::gtx280(), *K);
    ASSERT_TRUE(R.Valid) << V.Name;
    Gflops[I] = R.gflops(fftFlops(N));
    std::printf("%-26s %6.2f (paper %.0f)\n", V.Name, Gflops[I], V.Paper);
  }
  EXPECT_LT(Gflops[0], Gflops[1]);
  EXPECT_LE(Gflops[1], Gflops[2]);
  EXPECT_LT(Gflops[2], Gflops[3]);
  EXPECT_LT(Gflops[3], Gflops[4]);
}

TEST(Reproduction, ModelAblations) {
  // Not in the paper: each modeling decision of DESIGN.md section 8 is
  // load-bearing for the shapes above.
  printTitle("Ablations of the substrate-model decisions");

  // A1. GT200's relaxed coalescer makes naive mm far stronger on GTX 280;
  // without it the speedup balloons and Figure 11's device asymmetry
  // inverts.
  double Mm[2];
  for (bool Relaxed : {true, false}) {
    DeviceSpec Dev = DeviceSpec::gtx280();
    Dev.RelaxedCoalescing = Relaxed;
    Module M;
    const PerfResult Naive = measureNaive(M, Dev, Algo::MM, 1024);
    CompileOutput Best = compileBest(M, Dev, Algo::MM, 1024);
    ASSERT_TRUE(Naive.Valid && Best.Best);
    Mm[Relaxed] = Naive.TimeMs / measure(Dev, *Best.Best).TimeMs;
    std::printf("A1 mm GTX280 relaxed coalescer %-3s speedup %7.2fx\n",
                Relaxed ? "on" : "off", Mm[Relaxed]);
  }
  EXPECT_GT(Mm[false], 5.0 * Mm[true]);

  // A2. vv's gain comes from occupancy: the naive kernel launches one
  // half warp per block. Launched 64 or 256 threads wide, nothing is
  // left for the optimizer to gain.
  for (int BlockX : {16, 64, 256}) {
    const DeviceSpec Dev = DeviceSpec::gtx280();
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::VV, 1 << 20, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    Naive->launch().BlockDimX = BlockX;
    Naive->launch().GridDimX = Naive->workDomainX() / BlockX;
    const PerfResult RN = measure(Dev, *Naive);
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = Dev;
    CompileOutput Out = GC.compile(*Naive, Opt);
    ASSERT_TRUE(RN.Valid && Out.Best);
    const double X = RN.TimeMs / measure(Dev, *Out.Best).TimeMs;
    std::printf("A2 vv naive block %-3d speedup %7.2fx\n", BlockX, X);
    if (BlockX == 16) {
      EXPECT_GT(X, 1.5);
    } else {
      EXPECT_LT(X, 1.01) << "naive block " << BlockX;
    }
  }

  // A3. The diagonal remap removes the compiled transpose's partial
  // camping on GTX 8800, which the paper's full-window rule misses at
  // power-of-two sizes.
  for (long long N : {2048LL, 4096LL}) {
    const DeviceSpec Dev = DeviceSpec::gtx8800();
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, Algo::TP, N, D);
    ASSERT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = Dev;
    KernelFunction *With = GC.compileVariant(*Naive, Opt, 1, 1);
    Opt.PartitionElim = false;
    KernelFunction *Without = GC.compileVariant(*Naive, Opt, 1, 1);
    ASSERT_TRUE(With && Without);
    const PerfResult RW = measure(Dev, *With), RO = measure(Dev, *Without);
    ASSERT_TRUE(RW.Valid && RO.Valid);
    std::printf("A3 tp %lld GTX8800 camping factor %.3f with the remap, "
                "%.3f without\n",
                N, RW.Timing.CampingFactor, RO.Timing.CampingFactor);
    EXPECT_LT(RW.Timing.CampingFactor, RO.Timing.CampingFactor) << "tp " << N;
  }
}
