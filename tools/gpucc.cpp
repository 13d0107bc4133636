//===-- tools/gpucc.cpp - The gpuc command-line driver --------------------===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
// Source-to-source driver: reads a naive kernel, emits the optimized CUDA
// kernel and its launch configuration. The analysis report (--report)
// shows what the compiler saw: per-access coalescing verdicts, the
// data-sharing merge plan, the explored design space, and the traffic
// each access contributes on the simulated device.
//
//   gpucc kernel.cu                      # optimize for GTX 280
//   gpucc --device=gtx8800 kernel.cu     # hardware-specific tuning
//   gpucc --block=16 --thread=16 k.cu    # fixed merge factors, no search
//   gpucc --report --validate kernel.cu  # analysis + functional check
//   gpucc --cache-dir=DIR kernel.cu      # persistent compile/sim cache
//   gpucc --batch a.cu b.cu c.cu         # many kernels, shared cache
//
// With a cache directory (--cache-dir or $GPUC_CACHE_DIR), performance
// simulations and search winners persist across processes; a warm
// invocation emits byte-identical output to a cold one.
//
// gpucc itself only parses arguments, reads files, picks the daemon or
// this process, and prints in order: every input becomes one
// serve::CompileJob, compiled by serve::runCompileJob here or by the same
// code in gpucd.
//
//===----------------------------------------------------------------------===//

#include "baselines/CpuReference.h"
#include "cache/DiskCache.h"
#include "exec/Parallel.h"
#include "fuzz/Oracle.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "sim/SimCache.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <mutex>
#include <sstream>

using namespace gpuc;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpucc [options] <kernel.cu | ->\n"
      "       gpucc --batch [options] <kernel.cu>...\n"
      "  An input with several __global__ kernels and a\n"
      "  '#pragma gpuc pipeline(a -> b)' clause compiles as a pipeline:\n"
      "  kernel fusion is attempted, fused and unfused versions compete in\n"
      "  the search, and the winner program is emitted (--report shows the\n"
      "  legality verdict and the decision).\n"
      "  --device=gtx280|gtx8800|hd5870  target machine description\n"
      "  --opencl                  emit OpenCL C instead of CUDA\n"
      "  --block=N --thread=M      fixed merge factors (skips the search)\n"
      "  --no-vectorize --no-coalesce --no-merge --no-prefetch\n"
      "  --no-partition --no-fold  disable pipeline stages\n"
      "  --report                  print the analysis report to stderr\n"
      "  --validate                run naive and optimized kernels on the\n"
      "                            simulator and compare outputs\n"
      "  --sanitize                static shared-memory race detection after\n"
      "                            every pipeline stage; with --validate the\n"
      "                            simulator also race-checks dynamically\n"
      "  --lint                    warn about out-of-bounds accesses, bank\n"
      "                            conflicts and surviving non-coalesced\n"
      "                            accesses\n"
      "  --lint=strict             verdict mode: bounds lints come from the\n"
      "                            abstract-interpretation engine and every\n"
      "                            finding is qualified proven/possible;\n"
      "                            guarded accesses are checked, not\n"
      "                            skipped\n"
      "  --interp=scalar|vector    simulator engine: lane-vectorized\n"
      "                            bytecode (default) or the per-thread\n"
      "                            AST walk; results are bit-identical\n"
      "  --Werror                  treat warnings as errors\n"
      "  --print-naive             echo the parsed naive kernel first\n"
      "  --jobs=N                  lanes for the design-space search, and\n"
      "                            for --batch the concurrent compilations\n"
      "                            (default: hardware concurrency; 1 =\n"
      "                            serial; results are identical)\n"
      "  --no-prune                simulate every feasible variant instead\n"
      "                            of pruning by the lower-bound probe\n"
      "  --search-stats            print search counters (simulated vs.\n"
      "                            pruned, cache hits, wall-clock)\n"
      "  --time-report             print per-phase wall-clock timing\n"
      "  --batch                   compile every input file, sharing one\n"
      "                            cache; output and diagnostics are\n"
      "                            printed in input order\n"
      "  --cache-dir=DIR           persistent compile/sim cache directory\n"
      "                            (default: $GPUC_CACHE_DIR if set)\n"
      "  --no-disk-cache           ignore --cache-dir and $GPUC_CACHE_DIR\n"
      "  --cache-stats[=FILE]      print disk-cache traffic to stderr and\n"
      "                            optionally write it as JSON to FILE\n"
      "  --connect[=SOCK]          compile via a gpucd daemon (default\n"
      "                            socket: $GPUC_DAEMON_SOCKET), sharing\n"
      "                            its warm cache; when the daemon is\n"
      "                            unreachable, busy or shutting down,\n"
      "                            fall back to in-process compilation\n"
      "                            with a note. --validate/--time-report\n"
      "                            never ride the daemon and compile\n"
      "                            in-process directly\n"
      "  --daemon[=SOCK]           like --connect, but a missing daemon\n"
      "                            is an error instead of a fallback\n"
      "  --daemon-timeout-ms=N     per-request deadline on the daemon; at\n"
      "                            the deadline the search is cancelled\n"
      "                            and the request fails (no fallback)\n");
}

bool readInputFile(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Everything main() parses from argv. Job is the compile itself — the
/// same CompileJob goes to the daemon or to serve::runCompileJob; the
/// other fields steer this process.
struct DriverOptions {
  serve::CompileJob Job;
  /// --jobs: search lanes, or for --batch the concurrent files (0 =
  /// hardware concurrency).
  int Jobs = 0;
  std::vector<std::string> Inputs;
  bool Validate = false, TimeReport = false, Batch = false;
  bool NoDiskCache = false;
  bool CacheStatsFlag = false;
  std::string CacheStatsFile;
  std::string CacheDir;

  /// Thin-client mode: Optional (--connect) falls back to in-process
  /// compilation when the daemon is unreachable, busy or shutting down;
  /// Required (--daemon) makes those hard errors instead.
  enum class DaemonUse { Off, Optional, Required };
  DaemonUse Daemon = DaemonUse::Off;
  std::string DaemonSocket;

  DriverOptions() { Job.Flags = serve::jobDefaultFlags(); }
  bool has(uint32_t Flag) const { return (Job.Flags & Flag) != 0; }
};

/// Options that set (On) or clear bits of the job's flag word.
struct FlagOption {
  const char *Arg;
  uint32_t Bits;
  bool On;
};
constexpr FlagOption FlagOptions[] = {
    {"--no-vectorize", serve::JF_Vectorize, false},
    {"--no-coalesce", serve::JF_Coalesce, false},
    {"--no-merge", serve::JF_Merge, false},
    {"--no-prefetch", serve::JF_Prefetch, false},
    {"--no-partition", serve::JF_PartitionElim, false},
    {"--no-fold", serve::JF_Fold, false},
    {"--no-prune", serve::JF_Exhaustive, true},
    {"--report", serve::JF_Report, true},
    {"--print-naive", serve::JF_PrintNaive, true},
    {"--sanitize", serve::JF_Sanitize, true},
    {"--lint", serve::JF_Lint, true},
    {"--lint=strict", serve::JF_Lint | serve::JF_LintStrict, true},
    {"--Werror", serve::JF_Werror, true},
    {"--search-stats", serve::JF_SearchStats, true},
};

/// The in-process cache tiers, opened at most once per process. Client
/// mode opens them lazily, only when some request actually falls back —
/// a client whose every request the daemon serves never opens the disk
/// cache at all (the one-open-per-daemon regression test pins this).
struct LocalTiers {
  std::once_flag Once;
  std::unique_ptr<DiskCache> Disk;
  SimCache Mem;

  void ensure(const DriverOptions &D) {
    std::call_once(Once, [&] {
      // Explicit flag first, then the environment.
      std::string Dir = D.NoDiskCache     ? ""
                        : D.CacheDir.empty() ? envOr("GPUC_CACHE_DIR", "")
                                             : D.CacheDir;
      if (!Dir.empty()) {
        Disk = std::make_unique<DiskCache>(Dir);
        if (!Disk->valid()) {
          std::fprintf(stderr,
                       "gpucc: warning: cannot use cache directory '%s'; "
                       "continuing without a disk cache\n",
                       Dir.c_str());
          Disk.reset();
        }
      }
      Mem.setBackend(Disk.get());
    });
  }
};

/// Emits --cache-stats output: a human line on stderr and optional JSON.
void emitCacheStats(const DriverOptions &D, const LocalTiers &Local) {
  if (!D.CacheStatsFlag && D.CacheStatsFile.empty())
    return;
  DiskCacheStats S;
  std::string Dir = "(disabled)";
  if (Local.Disk) {
    S = Local.Disk->stats();
    Dir = Local.Disk->directory();
  }
  const SimCache &Mem = Local.Mem;
  if (D.CacheStatsFlag)
    std::fprintf(stderr,
                 "disk cache %s: %llu sim hits, %llu sim misses, %llu text "
                 "hits, %llu text misses, %llu writes, %llu corrupt "
                 "(%llu quarantined), hit rate %.1f%%; memory tier: %llu "
                 "hits, %llu misses\n",
                 Dir.c_str(), (unsigned long long)S.SimHits,
                 (unsigned long long)S.SimMisses,
                 (unsigned long long)S.TextHits,
                 (unsigned long long)S.TextMisses,
                 (unsigned long long)S.Writes,
                 (unsigned long long)S.Corrupt,
                 (unsigned long long)S.Quarantined, 100.0 * S.hitRate(),
                 (unsigned long long)Mem.hits(),
                 (unsigned long long)Mem.misses());
  if (D.CacheStatsFile.empty())
    return;
  std::ofstream Out(D.CacheStatsFile, std::ios::trunc);
  Out << strFormat(
      "{\"dir\": \"%s\", \"schema_version\": %u, \"sim_hits\": %llu, "
      "\"sim_misses\": %llu, \"text_hits\": %llu, \"text_misses\": %llu, "
      "\"writes\": %llu, \"write_errors\": %llu, \"corrupt\": %llu, "
      "\"quarantined\": %llu, \"hit_rate\": %.6f, \"mem_hits\": %llu, "
      "\"mem_misses\": %llu}\n",
      jsonEscape(Dir).c_str(), DiskCache::SchemaVersion,
      (unsigned long long)S.SimHits, (unsigned long long)S.SimMisses,
      (unsigned long long)S.TextHits, (unsigned long long)S.TextMisses,
      (unsigned long long)S.Writes, (unsigned long long)S.WriteErrors,
      (unsigned long long)S.Corrupt, (unsigned long long)S.Quarantined,
      S.hitRate(), (unsigned long long)Mem.hits(),
      (unsigned long long)Mem.misses());
}

/// --validate: runs the naive stages and the emitted kernels on the
/// simulator over identical seeded inputs and compares the last stage's
/// output arrays (a pipeline's intermediates are scratch: a fused program
/// never writes them). Under --sanitize both runs are also race-checked.
/// Appends its findings to \p Err. \returns the exit code: 0 clean, 1 for
/// a failed run or a race, 2 for mismatches.
int validate(const DriverOptions &D, const serve::CompileKeep &K,
             std::string &Err) {
  DeviceSpec Dev;
  serve::deviceFromName(D.Job.DeviceName, Dev);
  Simulator Sim(Dev);
  Sim.setInterpBackend(D.Job.Interp == 1 ? InterpBackend::Scalar
                                         : InterpBackend::Vector);
  const bool CheckRaces = D.has(serve::JF_Sanitize);
  const std::vector<const KernelFunction *> Naive(K.Stages.begin(),
                                                  K.Stages.end());
  BufferSet RefBufs, OptBufs;
  fillPipelineFuzzInputs(Naive, RefBufs, 99);
  fillPipelineFuzzInputs(Naive, OptBufs, 99);
  DiagnosticsEngine RunDiags;
  RaceLog RefRaces, OptRaces;
  if (!Sim.runPipelineFunctional(Naive, RefBufs, RunDiags,
                                 CheckRaces ? &RefRaces : nullptr) ||
      !Sim.runPipelineFunctional(K.Kernels, OptBufs, RunDiags,
                                 CheckRaces ? &OptRaces : nullptr)) {
    Err += "validation run failed:\n" + RunDiags.str();
    return 1;
  }
  for (const RaceLog *Log : {&RefRaces, &OptRaces})
    for (const RaceRecord &R : Log->Races)
      Err += strFormat("dynamic race: %s on '%s' word %lld, phase %d, "
                       "block %lld, threads %lld and %lld\n",
                       R.WriteWrite ? "write-write" : "write-read",
                       R.Array.c_str(), R.Word, R.Phase, R.Block, R.T1,
                       R.T2);
  if (!RefRaces.clean() || !OptRaces.clean())
    return 1;
  long long Bad = 0;
  for (const ParamDecl &Param : K.Stages.back()->params())
    if (Param.IsArray && Param.IsOutput)
      Bad += countMismatches(OptBufs.data(Param.Name),
                             RefBufs.data(Param.Name), 1e-3);
  Err += strFormat("validation: %lld mismatches\n", Bad);
  return Bad == 0 ? 0 : 2;
}

/// --time-report's per-variant table. Per-task times sum over lanes, so
/// they are not a partition of the compile wall-clock. Rows are keyed like
/// the search log: once the search enumerated more than one layout point,
/// the point's name joins the key so the points never merge.
std::string variantTimes(const CompileOutput &Out) {
  if (Out.Variants.size() <= 1)
    return "";
  TimeReport Times("design-space variants (per-lane time)");
  for (const VariantResult &V : Out.Variants) {
    std::string Tag = strFormat("b%d t%d", V.BlockMergeN, V.ThreadMergeM);
    if (Out.Search.LayoutPoints > 1)
      Tag = std::string(V.Layout) + " " + Tag;
    Times.add(Tag + " compile", V.CompileWallMs);
    Times.add(Tag + " simulate", V.SimWallMs);
  }
  return Times.str();
}

/// Compiles one input file: through the daemon when one is configured;
/// otherwise, or on a sanctioned --connect fallback, in this process via
/// serve::runCompileJob with \p Lanes search lanes. Batch lanes report
/// under the file's banner, so their messages drop the "gpucc: " prefix.
serve::CompileResult compileInput(const DriverOptions &D,
                                  const std::string &Path, LocalTiers &Local,
                                  int Lanes, serve::CompileKeep *Keep) {
  serve::CompileResult R;
  serve::CompileJob J = D.Job;
  if (!readInputFile(Path, J.Source)) {
    R.Code = 1;
    R.Err = D.Batch ? "error: cannot open file\n"
                    : strFormat("gpucc: error: cannot open '%s'\n",
                                Path.c_str());
    return R;
  }
  if (D.Batch)
    J.Name = Path;
  std::string Note;
  if (D.Daemon != DriverOptions::DaemonUse::Off) {
    std::string Err;
    serve::ClientStatus S = serve::compileViaDaemon(D.DaemonSocket, J, R, Err);
    if (S == serve::ClientStatus::Ok)
      return R;
    const char *Status = serve::clientStatusName(S);
    if (D.Daemon == DriverOptions::DaemonUse::Required ||
        !serve::fallbackEligible(S)) {
      R = serve::CompileResult(); // drop a half-decoded reply
      R.Code = 1;
      R.Err = strFormat("%serror: daemon %s: %s\n", D.Batch ? "" : "gpucc: ",
                        Status, Err.c_str());
      return R;
    }
    // A single file's note prints now, ahead of any cache-directory
    // warning from the local tiers' first open.
    if (D.Batch)
      Note = strFormat("note: daemon %s; compiled in-process\n", Status);
    else
      std::fprintf(stderr,
                   "gpucc: note: daemon %s (%s); compiling in-process\n",
                   Status, Err.c_str());
  }
  Local.ensure(D);
  serve::ServiceContext Ctx;
  Ctx.Mem = &Local.Mem;
  Ctx.Disk = Local.Disk.get();
  Ctx.Jobs = Lanes;
  R = serve::runCompileJob(J, Ctx, Keep);
  R.Err = Note + R.Err;
  return R;
}

/// One input start to finish: compileInput, then the local post-steps
/// over the kept kernels (--validate and --time-report), whose output
/// follows the compile's stderr.
serve::CompileResult runInput(const DriverOptions &D, const std::string &Path,
                              LocalTiers &Local, int Lanes) {
  const bool PostSteps = D.Validate || D.TimeReport;
  serve::CompileKeep Keep;
  WallTimer CompileTimer;
  serve::CompileResult R =
      compileInput(D, Path, Local, Lanes, PostSteps ? &Keep : nullptr);
  if (R.Code != 0 || !PostSteps)
    return R;
  TimeReport Times("gpucc --time-report");
  Times.add("compile", CompileTimer.elapsedMs());
  if (D.Validate)
    R.Code = Times.time("validate", [&] { return validate(D, Keep, R.Err); });
  if (D.TimeReport)
    R.Err += variantTimes(Keep.Out) + Times.str();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  DriverOptions D;
  serve::CompileJob &J = D.Job;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const FlagOption *F = std::find_if(
        std::begin(FlagOptions), std::end(FlagOptions),
        [&](const FlagOption &O) { return std::strcmp(Arg, O.Arg) == 0; });
    DeviceSpec Dev;
    if (F != std::end(FlagOptions)) {
      J.Flags = F->On ? J.Flags | F->Bits : J.Flags & ~F->Bits;
    } else if (std::strncmp(Arg, "--device=", 9) == 0 &&
               serve::deviceFromName(Arg + 9, Dev))
      J.DeviceName = Arg + 9;
    else if (std::strcmp(Arg, "--opencl") == 0)
      J.Dialect = 1;
    else if (std::strncmp(Arg, "--block=", 8) == 0)
      J.BlockN = std::atoi(Arg + 8);
    else if (std::strncmp(Arg, "--thread=", 9) == 0)
      J.ThreadM = std::atoi(Arg + 9);
    else if (std::strcmp(Arg, "--validate") == 0)
      D.Validate = true;
    else if (std::strncmp(Arg, "--jobs=", 7) == 0)
      D.Jobs = std::atoi(Arg + 7);
    else if (std::strcmp(Arg, "--jobs") == 0 && I + 1 < argc)
      D.Jobs = std::atoi(argv[++I]);
    else if (std::strcmp(Arg, "--interp=scalar") == 0)
      J.Interp = 1;
    else if (std::strcmp(Arg, "--interp=vector") == 0)
      J.Interp = 0;
    else if (std::strncmp(Arg, "--interp=", 9) == 0) {
      std::fprintf(stderr, "gpucc: error: bad --interp value '%s'\n",
                   Arg + 9);
      return 1;
    } else if (std::strcmp(Arg, "--time-report") == 0)
      D.TimeReport = true;
    else if (std::strcmp(Arg, "--batch") == 0)
      D.Batch = true;
    else if (std::strncmp(Arg, "--cache-dir=", 12) == 0)
      D.CacheDir = Arg + 12;
    else if (std::strcmp(Arg, "--no-disk-cache") == 0)
      D.NoDiskCache = true;
    else if (std::strcmp(Arg, "--connect") == 0)
      D.Daemon = DriverOptions::DaemonUse::Optional;
    else if (std::strncmp(Arg, "--connect=", 10) == 0) {
      D.Daemon = DriverOptions::DaemonUse::Optional;
      D.DaemonSocket = Arg + 10;
    } else if (std::strcmp(Arg, "--daemon") == 0)
      D.Daemon = DriverOptions::DaemonUse::Required;
    else if (std::strncmp(Arg, "--daemon=", 9) == 0) {
      D.Daemon = DriverOptions::DaemonUse::Required;
      D.DaemonSocket = Arg + 9;
    } else if (std::strncmp(Arg, "--daemon-timeout-ms=", 20) == 0)
      J.TimeoutMs = static_cast<unsigned>(std::atoi(Arg + 20));
    else if (std::strcmp(Arg, "--cache-stats") == 0)
      D.CacheStatsFlag = true;
    else if (std::strncmp(Arg, "--cache-stats=", 14) == 0) {
      D.CacheStatsFlag = true;
      D.CacheStatsFile = Arg + 14;
    } else if (std::strcmp(Arg, "--help") == 0) {
      usage();
      return 0;
    } else if (Arg[0] == '-' && std::strcmp(Arg, "-") != 0) {
      std::fprintf(stderr, "gpucc: error: unknown option '%s'\n", Arg);
      usage();
      return 1;
    } else {
      D.Inputs.push_back(Arg);
    }
  }
  if (D.Inputs.empty()) {
    usage();
    return 1;
  }
  if (!D.Batch && D.Inputs.size() > 1) {
    std::fprintf(stderr,
                 "gpucc: error: multiple inputs require --batch\n");
    return 1;
  }
  if (D.Batch && (D.has(serve::JF_Report) || D.Validate ||
                  D.has(serve::JF_PrintNaive) || J.BlockN > 0 ||
                  J.ThreadM > 0)) {
    std::fprintf(stderr,
                 "gpucc: error: --report/--validate/--print-naive/--block/"
                 "--thread are not supported with --batch\n");
    return 1;
  }

  // Thin-client routing. --validate and --time-report are local post-steps
  // over the compiled kernels, which never cross the wire: --connect
  // quietly compiles in-process, --daemon refuses.
  if (D.Daemon != DriverOptions::DaemonUse::Off) {
    if (D.DaemonSocket.empty())
      D.DaemonSocket = envOr("GPUC_DAEMON_SOCKET", "");
    if (D.DaemonSocket.empty()) {
      std::fprintf(stderr,
                   "gpucc: error: no daemon socket (--connect=SOCK, "
                   "--daemon=SOCK or $GPUC_DAEMON_SOCKET)\n");
      return 1;
    }
    if (D.Validate || D.TimeReport) {
      if (D.Daemon == DriverOptions::DaemonUse::Required) {
        std::fprintf(stderr,
                     "gpucc: error: --validate/--time-report are not "
                     "supported via the daemon (drop --daemon or use "
                     "--connect)\n");
        return 1;
      }
      D.Daemon = DriverOptions::DaemonUse::Off;
    }
  }

  // In-process runs open the local tiers up front; client mode leaves
  // them to the first fallback (the daemon owns the only open).
  LocalTiers Local;
  if (D.Daemon == DriverOptions::DaemonUse::Off)
    Local.ensure(D);
  const int Lanes =
      D.Jobs <= 0 ? static_cast<int>(defaultConcurrency()) : D.Jobs;

  if (!D.Batch) {
    serve::CompileResult R = runInput(D, D.Inputs.front(), Local, Lanes);
    std::fputs(R.Out.c_str(), stdout);
    std::fputs(R.Err.c_str(), stderr);
    emitCacheStats(D, Local);
    return R.Code;
  }

  // Batch: one lane per file, each compile searching serially (nested
  // parallelism would oversubscribe, and results are identical anyway);
  // output and diagnostics print strictly in input order, so the streams
  // are byte-identical for any lane count and any cache temperature.
  std::vector<serve::CompileResult> Results(D.Inputs.size());
  parallelFor(static_cast<unsigned>(Lanes), D.Inputs.size(), [&](size_t I) {
    Results[I] = runInput(D, D.Inputs[I], Local, /*Lanes=*/1);
  });
  int Code = 0;
  for (size_t I = 0; I < D.Inputs.size(); ++I) {
    const serve::CompileResult &R = Results[I];
    std::printf("// ==== %s ====\n%s", D.Inputs[I].c_str(), R.Out.c_str());
    if (!R.Err.empty())
      std::fprintf(stderr, "== %s ==\n%s", D.Inputs[I].c_str(),
                   R.Err.c_str());
    if (R.Code != 0)
      Code = 1;
  }
  emitCacheStats(D, Local);
  return Code;
}
