//===-- perfbench/src/main.cpp - gpuc benchmark entry point ---------------===//
//
// Runs one workload and prints, for people, every metric with its unit and
// sample count plus the run's metadata, then as the last stdout line one
// JSON object: correct, attempted, failed and the metrics (end-to-end ones
// untraced, per-layer ones with --trace 1). Exits 1 when any output check
// failed.
//
//   perfbench --workload search_cold|serve_warm|fuzz_campaign --seed N
//             --seconds S --trace 0|1 [--smoke] [--inject reference|fuzz]
//             [--expected FILE] [--root DIR] [--out DIR] [--git-sha SHA]
//   perfbench --validate-winners   functional check of every expected winner
//   perfbench --bless              print the expected-winner file at HEAD
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"
#include "Workloads.h"

#include "sim/SimCache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char *Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why);
  return 2;
}

void printMetric(const Metric &M, const char *Kind) {
  std::printf("%-6s %-34s %14.6g %-6s n=%lld\n", Kind, M.Name.c_str(),
              M.Value, M.Unit.c_str(), M.Samples);
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

int validateWinners(const RunConfig &C) {
  std::vector<Program> Progs;
  std::map<std::string, Winner> Expected;
  std::string Err;
  if (!loadPrograms(C.Root, Progs, Err) ||
      !loadExpected(C.ExpectedFile, Expected, Err))
    return usage(Err.c_str());
  int Bad = 0;
  for (const Program &P : Progs) {
    auto It = Expected.find(P.Name);
    auto T0 = Clock::now();
    std::string Why = It == Expected.end() ? "no expected winner"
                                           : validateWinner(P, It->second);
    std::printf("%-16s %-40s %s (%.0f ms)\n", P.Name.c_str(),
                It == Expected.end() ? "-" : It->second.str().c_str(),
                Why.empty() ? "ok" : Why.c_str(), msSince(T0));
    Bad += !Why.empty();
  }
  return Bad ? 1 : 0;
}

int bless(const RunConfig &C) {
  std::vector<Program> Progs;
  std::string Err;
  if (!loadPrograms(C.Root, Progs, Err))
    return usage(Err.c_str());
  std::map<std::string, Winner> W;
  for (const Program &P : Progs) {
    gpuc::SimCache Mem;
    DirectCompile D = compileDirect(P, C.Lanes, &Mem, nullptr);
    if (!D.Ok)
      return usage((P.Name + ": " + D.Error).c_str());
    W[P.Name] = D.W;
  }
  std::fputs(expectedFileText(Progs, W).c_str(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  C.Lanes = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string GitSha = "unknown";
  bool Validate = false, Bless = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : "";
    };
    if (A == "--workload")
      C.Workload = Next();
    else if (A == "--seed")
      C.Seed = static_cast<unsigned>(std::strtoul(Next(), nullptr, 10));
    else if (A == "--seconds")
      C.Seconds = std::atof(Next());
    else if (A == "--trace")
      C.Trace = std::atoi(Next()) != 0;
    else if (A == "--smoke")
      C.Smoke = true;
    else if (A == "--inject")
      C.Inject = Next();
    else if (A == "--expected")
      C.ExpectedFile = Next();
    else if (A == "--root")
      C.Root = Next();
    else if (A == "--out")
      C.OutDir = Next();
    else if (A == "--git-sha")
      GitSha = Next();
    else if (A == "--validate-winners")
      Validate = true;
    else if (A == "--bless")
      Bless = true;
    else
      return usage(("unknown argument " + A).c_str());
  }
  if (C.ExpectedFile.empty())
    C.ExpectedFile = C.Root + "/perfbench/expected_winners.txt";
  if (C.OutDir.empty())
    C.OutDir = ".bench_out";
  if (Validate)
    return validateWinners(C);
  if (Bless)
    return bless(C);

  void (*Run)(const RunConfig &, Result &) = nullptr;
  if (C.Workload == "search_cold")
    Run = runSearchCold;
  else if (C.Workload == "serve_warm")
    Run = runServeWarm;
  else if (C.Workload == "fuzz_campaign")
    Run = runFuzzCampaign;
  else
    return usage(("unknown workload '" + C.Workload + "'").c_str());
  if (C.Smoke)
    C.SetupReps = 1;

  // Relative paths keep the daemon's socket path short wherever the
  // checkout lives.
  C.WorkDir = C.OutDir + "/run-" + std::to_string(getpid());
  std::error_code EC;
  std::filesystem::create_directories(C.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + C.WorkDir).c_str());

  Result R;
  R.meta("workload", C.Workload);
  R.meta("seed", std::to_string(C.Seed));
  R.meta("seconds", jsonNumber(C.Seconds));
  R.meta("trace", C.Trace ? "1" : "0");
  R.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  R.meta("build", PERFBENCH_BUILD_TYPE);
  R.meta("compiler", __VERSION__);
  R.meta("git_sha", GitSha);
  if (C.Smoke)
    R.meta("setting", "smoke");
  if (!C.Inject.empty())
    R.meta("inject", C.Inject);
  Run(C, R);
  std::filesystem::remove_all(C.WorkDir, EC);

  if (!C.Trace)
    R.metric("peak_rss_mb", "MB", peakRssMb(), 1);
  const bool Correct = R.Failed == 0 && R.Attempted > 0;

  for (const auto &[K, V] : R.Meta)
    std::printf("meta   %-34s %s\n", K.c_str(), V.c_str());
  for (const Metric &M : R.Rows)
    printMetric(M, "row");
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const std::string &Name, double V, const std::string &U) {
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
            jsonNumber(V) + ", \"unit\": \"" + U + "\"}";
    First = false;
  };
  if (C.Trace) {
    for (const LayerMetricDef &D : layerMetricDefs()) {
      auto It = R.Layer.find(D.Name);
      const double V = It == R.Layer.end() ? 0 : It->second;
      printMetric({D.Name, D.Unit, V, 1}, "layer");
      Emit(D.Name, V, D.Unit);
    }
  } else {
    for (const Metric &M : R.EndToEnd) {
      printMetric(M, "metric");
      Emit(M.Name, M.Value, M.Unit);
    }
  }
  std::printf("metric %-34s %14.6g %-6s n=%lld\n", "failed_share",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0,
              "ratio", R.Attempted);
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", E.c_str());
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
