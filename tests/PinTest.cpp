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
//===----------------------------------------------------------------------===//

#include "baselines/NaiveKernels.h"
#include "serve/Service.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

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

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--bless")
      return bless();
  return RUN_ALL_TESTS();
}
