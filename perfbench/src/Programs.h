//===-- perfbench/src/Programs.h - Benchmark programs and winners -*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eleven programs of the search workloads — the ten Table-1 kernels at
/// the Figure-11 sizes plus the committed BLAS-2 pipeline — and the
/// expected-winner file that pins each one's search result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "serve/Protocol.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Program {
  /// "mm-1024", ..., "blas2_pipeline".
  std::string Name;
  std::string Source;
  /// Table-1 algorithm and size; Pipeline programs have neither.
  bool Pipeline = false;
  gpuc::Algo A = gpuc::Algo::MM;
  long long N = 0;
};

/// The eleven programs in canonical order. \p Root is the checkout root
/// (the pipeline is read from examples/kernels/). \returns false with \p Err
/// set when a source is missing.
bool loadPrograms(const std::string &Root, std::vector<Program> &Out,
                  std::string &Err);

/// The cheap subset the smoke setting searches.
bool isSmokeProgram(const Program &P);

/// The job every search workload sends for \p P: default pipeline flags on
/// gtx280, full search.
gpuc::serve::CompileJob searchJob(const Program &P);

/// A search's winner as the expected-winner file records it.
struct Winner {
  /// Merge factors and layout point of the winning kernel; a pipeline
  /// records its fused kernel's ("-" when the unfused chain won).
  int BlockN = 0, ThreadM = 0;
  std::string Layout;
  bool Fused = false;
  /// Modeled time, 4 significant digits.
  std::string ModeledMs;
  /// FNV-1a of the emitted text (what runCompileJob returns on stdout).
  std::string TextFnv;

  bool operator==(const Winner &O) const {
    return BlockN == O.BlockN && ThreadM == O.ThreadM && Layout == O.Layout &&
           Fused == O.Fused && ModeledMs == O.ModeledMs &&
           TextFnv == O.TextFnv;
  }
  std::string str() const;
};

/// Parses the expected-winner file. \returns false with \p Err on a
/// missing file or malformed line.
bool loadExpected(const std::string &Path, std::map<std::string, Winner> &Out,
                  std::string &Err);
std::string expectedFileText(const std::vector<Program> &Programs,
                             const std::map<std::string, Winner> &W);

/// Outcome of compiling \p P directly through GpuCompiler (the same
/// options serve::optionsFromJob builds for searchJob(P)). Owns the module,
/// so the searched variant kernels stay alive for the traced run's probes.
struct DirectCompile {
  bool Ok = false;
  std::string Error;
  Winner W;
  std::string Text;
  gpuc::SearchStats Search;
  std::unique_ptr<gpuc::Module> M;
  /// Single-kernel programs fill Single; pipelines fill Prog.
  gpuc::CompileOutput Single;
  gpuc::ProgramCompileOutput Prog;
  /// The parsed naive stages (owned by M).
  std::vector<const gpuc::KernelFunction *> Stages;
};

class Trace;

/// Adjusts the options right before the search; receives the id of the
/// search's span (the traced run installs its stage hook there).
using ConfigureFn = std::function<void(gpuc::CompileOptions &, int SearchSpan)>;

/// With \p T enabled, the parse, cache-key and search calls are recorded
/// as spans keyed by the program name.
DirectCompile compileDirect(const Program &P, int Lanes, gpuc::SimCache *Mem,
                            gpuc::DiskCache *Disk,
                            const ConfigureFn &Configure = nullptr,
                            Trace *T = nullptr);

/// Compiles \p P at its expected winner (factors and layout point), runs
/// the result functionally on the full problem and compares it with
/// baselines/CpuReference (Table-1 kernels) or with the unfused naive
/// chain (the pipeline). \returns an empty string on success.
std::string validateWinner(const Program &P, const Winner &W);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
