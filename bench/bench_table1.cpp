//===-- bench/bench_table1.cpp - Table 1 reproduction ---------------------===//
//
// Table 1 of the paper lists the ten algorithms, their input sizes and
// the lines of code of each naive kernel (the measure of how little the
// programmer writes). This binary prints our dialect's naive-kernel LoC
// next to the paper's.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace gpuc;
using namespace gpuc::bench;

int main(int, char **argv) {
  Report::get().setTitle(
      "Table 1: algorithms, input sizes, naive-kernel lines of code");
  for (Algo A : table1Algos()) {
    const AlgoInfo &Info = algoInfo(A);
    int Loc = countCodeLines(naiveSource(A, 1024));
    Report::get().add(strFormat("%-12s %s", Info.Name, Info.PaperSizes),
                      {{"our_loc", static_cast<double>(Loc)},
                       {"paper_loc", static_cast<double>(Info.PaperNaiveLoc)}});
  }
  return Report::get().finish(argv[0]);
}
