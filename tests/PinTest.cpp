//===-- tests/PinTest.cpp - winner pins for the reproduction ---------------===//
//
// Every Table-1 kernel at its Figure-11 size, and the committed BLAS-2
// pipeline, searched on both modeled GPUs through the one compile flow
// (serve::runCompileJob) with the default pipeline. Each search's winner —
// single or fused kernel, merge factors, layout point, modeled time to nine
// significant digits and an FNV-1a of the emitted text — must equal its row
// in tests/pins/winners.txt. A change that moves any of them fails here
// until the file is re-blessed:
//
//   ./build/tests/pin_test --bless     # rewrites tests/pins/winners.txt
//
// SearchResultPins goes below the winner: every VariantResult of the
// one-lane Table-1 searches (its lower bound, every SimStats field, its
// occupancy, its modeled time and its text) and the winner's per-access
// traffic rows, folded into one digest per search and compared with the
// digests recorded in this file. A change that is meant to move a modeled
// number updates the digest with the value the failure prints.
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "serve/Service.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace gpuc;

namespace {

struct PinCase {
  std::string Program; ///< "mm-1024", ..., "blas2_pipeline"
  std::string Device;  ///< wire name: "gtx8800" | "gtx280"
  std::string Source;
  bool Pipeline = false;
};

/// Figure-11 sizes: 1024 except strsm 512, vv 2^20 and rd 2^21.
long long figure11Size(Algo A) {
  switch (A) {
  case Algo::STRSM:
    return 512;
  case Algo::VV:
    return 1LL << 20;
  case Algo::RD:
    return 1LL << 21;
  default:
    return 1024;
  }
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const std::vector<PinCase> &pinCases() {
  static const std::vector<PinCase> Cases = [] {
    std::vector<PinCase> Out;
    for (const char *Dev : {"gtx8800", "gtx280"}) {
      for (Algo A : table1Algos()) {
        const long long N = figure11Size(A);
        Out.push_back({strFormat("%s-%lld", algoInfo(A).Name, N), Dev,
                       naiveSource(A, N), false});
      }
      Out.push_back({"blas2_pipeline", Dev,
                     readFile(std::string(GPUC_SOURCE_DIR) +
                              "/examples/kernels/blas2_pipeline.cu"),
                     true});
    }
    return Out;
  }();
  return Cases;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string rowKey(const PinCase &C) { return C.Program + " " + C.Device; }

/// Searches \p C and formats its winner as one pin-file row; on a failed
/// compile the row says so, which never matches a blessed row.
std::string winnerRow(const PinCase &C) {
  serve::CompileJob J;
  J.Source = C.Source;
  J.DeviceName = C.Device;
  J.Flags = serve::jobDefaultFlags();
  serve::ServiceContext Ctx;
  Ctx.Jobs = 0; // every lane: the winner is lane-count independent
  serve::CompileKeep Keep;
  const serve::CompileResult R = serve::runCompileJob(J, Ctx, &Keep);
  if (R.Code != 0)
    return rowKey(C) + " failed: " + R.Err;

  std::string Kind = "single", Layout = "-";
  int N = 0, M = 0;
  double Ms = 0;
  const VariantResult *Best = nullptr;
  if (!C.Pipeline) {
    Best = &Keep.Out.BestVariant;
    Ms = Best->Perf.TimeMs;
  } else if (Keep.Program.UseFused) {
    Kind = "fused";
    Best = &Keep.Program.FusedOut.BestVariant;
    Ms = Keep.Program.FusedMs;
  } else {
    Kind = "unfused";
    Ms = Keep.Program.UnfusedMs;
  }
  if (Best) {
    N = Best->BlockMergeN;
    M = Best->ThreadMergeM;
    Layout = Best->Layout ? Best->Layout : "identity";
  }
  return strFormat("%-16s %-7s %-7s %3d %3d %-9s %-16.9g %016llx",
                   C.Program.c_str(), C.Device.c_str(), Kind.c_str(), N, M,
                   Layout.c_str(), Ms,
                   static_cast<unsigned long long>(fnv1a(R.Out)));
}

/// The pin file's rows by "program device".
std::map<std::string, std::string> loadPins() {
  std::map<std::string, std::string> Rows;
  std::istringstream In(readFile(GPUC_PIN_FILE));
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Program, Device;
    LS >> Program >> Device;
    Rows[Program + " " + Device] = Line;
  }
  return Rows;
}

int bless() {
  std::string Text =
      "# Winner pins: the default-pipeline search winner of every Table-1\n"
      "# kernel at its Figure-11 size and of the BLAS-2 pipeline, per device.\n"
      "# Checked by pin_test; rewritten by `pin_test --bless`.\n"
      "# program device kind block thread layout modeled_ms text_fnv1a\n";
  for (const PinCase &C : pinCases())
    Text += winnerRow(C) + "\n";
  std::ofstream Out(GPUC_PIN_FILE, std::ios::binary | std::ios::trunc);
  Out << Text;
  std::fputs(Text.c_str(), stdout);
  return Out ? 0 : 1;
}

class WinnerPins : public ::testing::TestWithParam<size_t> {};

TEST_P(WinnerPins, MatchesBlessedRow) {
  const PinCase &C = pinCases()[GetParam()];
  const std::map<std::string, std::string> Pins = loadPins();
  auto It = Pins.find(rowKey(C));
  ASSERT_NE(It, Pins.end()) << "no pin for " << rowKey(C);
  EXPECT_EQ(winnerRow(C), It->second);
}

INSTANTIATE_TEST_SUITE_P(
    Figure11, WinnerPins, ::testing::Range<size_t>(0, pinCases().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = rowKey(pinCases()[Info.param]);
      for (char &Ch : Name)
        if (!std::isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

TEST(WinnerPinFile, HasExactlyOneRowPerCase) {
  const std::map<std::string, std::string> Pins = loadPins();
  EXPECT_EQ(Pins.size(), pinCases().size());
  for (const PinCase &C : pinCases())
    EXPECT_EQ(Pins.count(rowKey(C)), 1u) << rowKey(C);
}

//===----------------------------------------------------------------------===//
// Every variant's performance result, per search.
//===----------------------------------------------------------------------===//

struct SearchPin {
  Algo A;
  const char *Device; ///< "gtx8800" | "gtx280"
  bool Exhaustive;
  uint64_t Digest;
};

/// One-lane vector-engine searches at Figure-11 sizes: pruned on both
/// devices, exhaustive on gtx280 (every candidate fully simulated).
const std::vector<SearchPin> &searchPins() {
  static const std::vector<SearchPin> Pins = {
      {Algo::TMV, "gtx280", false, 0x3895c96d771fc2f8ull},
      {Algo::MM, "gtx280", false, 0x20453a2f937eb246ull},
      {Algo::MV, "gtx280", false, 0x9939d611ac3eca09ull},
      {Algo::VV, "gtx280", false, 0xabbca6cedee818daull},
      {Algo::RD, "gtx280", false, 0x69bf0ab603a27d02ull},
      {Algo::STRSM, "gtx280", false, 0xbf5cd085a65d777dull},
      {Algo::CONV, "gtx280", false, 0x1f2dbedcbebb5785ull},
      {Algo::TP, "gtx280", false, 0x3029184ee26b51b4ull},
      {Algo::DEMOSAIC, "gtx280", false, 0x69dce6c316c85775ull},
      {Algo::IMREGIONMAX, "gtx280", false, 0xae7db6dcf498b553ull},
      {Algo::TMV, "gtx8800", false, 0x3359646963f95754ull},
      {Algo::MM, "gtx8800", false, 0xfe6a5555aab1f43full},
      {Algo::MV, "gtx8800", false, 0x1b372213f33fbc04ull},
      {Algo::VV, "gtx8800", false, 0x019a70152bddb9bfull},
      {Algo::RD, "gtx8800", false, 0x14730a058ab2b7c8ull},
      {Algo::STRSM, "gtx8800", false, 0xbf8ef772489f37b3ull},
      {Algo::CONV, "gtx8800", false, 0x0893237070b6c6dfull},
      {Algo::TP, "gtx8800", false, 0x8375d989d70ed738ull},
      {Algo::DEMOSAIC, "gtx8800", false, 0x84e348a7f71bc5f1ull},
      {Algo::IMREGIONMAX, "gtx8800", false, 0xfac70edcb6e61921ull},
      {Algo::TMV, "gtx280", true, 0x24cfd757ebd96592ull},
      {Algo::MM, "gtx280", true, 0xf89f4484ead5eb75ull},
      {Algo::MV, "gtx280", true, 0xfaea0e630caf2faaull},
      {Algo::VV, "gtx280", true, 0x9df217860adc38daull},
      {Algo::RD, "gtx280", true, 0xa109aa82ef7156b8ull},
      {Algo::STRSM, "gtx280", true, 0x69dc465676bcc3cfull},
      {Algo::CONV, "gtx280", true, 0xe4ce84d015d883f2ull},
      {Algo::TP, "gtx280", true, 0xb5991ed5ec4ced7eull},
      {Algo::DEMOSAIC, "gtx280", true, 0x974cabf377b4af95ull},
      {Algo::IMREGIONMAX, "gtx280", true, 0x6982bc2bf9f64e9bull},
  };
  return Pins;
}

/// Every field of \p S, doubles to seventeen digits (exact).
std::string statsText(const SimStats &S) {
  std::string T = strFormat(
      "ops=%.17g flops=%.17g ld=%.17g st=%.17g coal=%.17g uncoal=%.17g "
      "txn=%.17g f1=%.17g f2=%.17g f4=%.17g useful=%.17g shhw=%.17g "
      "bank=%.17g bsync=%.17g gsync=%.17g parts=",
      S.DynOps, S.Flops, S.GlobalLoadHalfWarps, S.GlobalStoreHalfWarps,
      S.CoalescedHalfWarps, S.UncoalescedHalfWarps, S.Transactions,
      S.BytesMovedFloat, S.BytesMovedFloat2, S.BytesMovedFloat4,
      S.UsefulBytes, S.SharedAccessHalfWarps, S.SharedBankExtraCycles,
      S.BlockSyncs, S.GlobalSyncs);
  for (double B : S.PartitionBytes)
    T += strFormat("%.17g,", B);
  return T;
}

std::string occupancyText(const Occupancy &O) {
  return strFormat("regs=%d shared=%lld blocks=%d threads=%d by=%s inf=%d",
                   O.RegsPerThread, O.SharedBytesPerBlock, O.BlocksPerSM,
                   O.ActiveThreadsPerSM, O.LimitedBy ? O.LimitedBy : "-",
                   O.Infeasible);
}

/// The search's variants in slot order, then the winner's site rows (the
/// numbers behind gpucc --report's traffic table).
std::string searchResultText(const SearchPin &P, const CompileOutput &Out,
                             const DeviceSpec &Dev) {
  std::string T;
  for (const VariantResult &V : Out.Variants) {
    T += strFormat("%s b%d t%d lb=%.9g valid=%d feasible=%d pruned=%d "
                   "static=%d limited=%s ms=%.9g text=%016llx\n",
                   V.Layout, V.BlockMergeN, V.ThreadMergeM, V.LowerBoundMs,
                   V.Perf.Valid, V.Feasible, V.Pruned, V.StaticallyPruned,
                   V.LimitedBy ? V.LimitedBy : "-", V.Perf.TimeMs,
                   static_cast<unsigned long long>(
                       V.Kernel ? fnv1a(printKernel(*V.Kernel)) : 0));
    T += "  " + statsText(V.Perf.Stats) + "\n";
    T += "  " + occupancyText(V.Perf.Occ) + "\n";
  }
  if (Out.Best) {
    Simulator Sim(Dev);
    DiagnosticsEngine D;
    PerfOptions Sites;
    Sites.TrackSites = true;
    const PerfResult R = Sim.runPerformance(*Out.Best, D, Sites);
    T += strFormat("winner %s sites valid=%d ms=%.9g\n",
                   algoInfo(P.A).Name, R.Valid, R.TimeMs);
    // Sorted: two sites that print alike and move equal bytes keep no
    // defined order in R.Sites.
    std::vector<std::string> Rows;
    for (const auto &[Label, S] : R.Sites)
      Rows.push_back(strFormat("  %s store=%d hw=%.17g coal=%.17g txn=%.17g "
                               "bytes=%.17g\n",
                               Label.c_str(), S.IsStore, S.HalfWarps,
                               S.CoalescedHalfWarps, S.Transactions,
                               S.BytesMoved));
    std::sort(Rows.begin(), Rows.end());
    for (const std::string &Row : Rows)
      T += Row;
  }
  return T;
}

std::string searchPinName(const SearchPin &P) {
  return strFormat("%s_%s_%s", algoInfo(P.A).Name, P.Device,
                   P.Exhaustive ? "exhaustive" : "pruned");
}

class SearchResultPins : public ::testing::TestWithParam<size_t> {};

TEST_P(SearchResultPins, EveryVariantKeepsItsPerformanceResult) {
  const SearchPin &P = searchPins()[GetParam()];
  Module M;
  DiagnosticsEngine D;
  KernelFunction *Naive = parseNaive(M, P.A, figure11Size(P.A), D);
  ASSERT_NE(Naive, nullptr) << D.str();
  CompileOptions Opt;
  Opt.Device = std::string(P.Device) == "gtx280" ? DeviceSpec::gtx280()
                                                 : DeviceSpec::gtx8800();
  Opt.Interp = InterpBackend::Vector;
  Opt.ExhaustiveSearch = P.Exhaustive;
  Opt.Jobs = 1;
  GpuCompiler GC(M, D);
  const CompileOutput Out = GC.compile(*Naive, Opt);
  ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
  const uint64_t H = fnv1a(searchResultText(P, Out, Opt.Device));
  EXPECT_EQ(H, P.Digest) << searchPinName(P)
                         << strFormat(": digest 0x%016llxull",
                                      static_cast<unsigned long long>(H));
}

INSTANTIATE_TEST_SUITE_P(
    Figure11, SearchResultPins,
    ::testing::Range<size_t>(0, searchPins().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return searchPinName(searchPins()[Info.param]);
    });

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--bless")
      return bless();
  return RUN_ALL_TESTS();
}
