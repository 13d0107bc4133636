//===-- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common plumbing for the per-figure benchmark binaries: compiling a
/// naive kernel to its design-space best, measuring simulated kernel
/// times, and accumulating a printable table that mirrors the paper's
/// figure. Each binary is a plain program: main runs every case once, in
/// order, and Report::finish prints the table and writes the JSON.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_BENCH_BENCHUTIL_H
#define GPUC_BENCH_BENCHUTIL_H

#include "baselines/CpuReference.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace gpuc {
namespace bench {

/// One printable result row.
struct Row {
  std::string Label;
  std::vector<std::pair<std::string, double>> Values;
};

/// Collects rows while the cases run; finish() prints them.
class Report {
public:
  static Report &get() {
    static Report R;
    return R;
  }

  void setTitle(std::string T) { Title = std::move(T); }
  void addNote(std::string N) { Notes.push_back(std::move(N)); }

  void add(const std::string &Label,
           std::vector<std::pair<std::string, double>> Values) {
    Rows.push_back({Label, std::move(Values)});
  }

  /// Scalar metadata emitted into the JSON "meta" object (search
  /// wall-clocks, speedups, cache hit rates, ...).
  void addMeta(const std::string &Key, double Value) {
    MetaNum.emplace_back(Key, Value);
  }
  void addMeta(const std::string &Key, const std::string &Value) {
    MetaStr.emplace_back(Key, Value);
  }

  void print() const {
    std::printf("\n=== %s ===\n", Title.c_str());
    for (const Row &R : Rows) {
      std::printf("%-28s", R.Label.c_str());
      for (const auto &[Name, V] : R.Values)
        std::printf("  %s=%.3f", Name.c_str(), V);
      std::printf("\n");
    }
    for (const auto &[Key, V] : MetaNum)
      std::printf("meta: %s=%.4f\n", Key.c_str(), V);
    for (const auto &[Key, V] : MetaStr)
      std::printf("meta: %s=%s\n", Key.c_str(), V.c_str());
    for (const std::string &N : Notes)
      std::printf("note: %s\n", N.c_str());
    std::printf("\n");
  }

  /// Writes the collected rows/meta/notes as a machine-readable JSON file
  /// so the repo's perf trajectory diffs across PRs.
  void writeJson(const std::string &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      return;
    OS << "{\n  \"title\": " << jsonStr(Title) << ",\n  \"rows\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      OS << "    {\"label\": " << jsonStr(R.Label) << ", \"values\": {";
      for (size_t J = 0; J < R.Values.size(); ++J) {
        OS << jsonStr(R.Values[J].first) << ": "
           << jsonNum(R.Values[J].second);
        if (J + 1 < R.Values.size())
          OS << ", ";
      }
      OS << "}}" << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    OS << "  ],\n  \"meta\": {";
    bool FirstMeta = true;
    for (const auto &[Key, V] : MetaNum) {
      OS << (FirstMeta ? "" : ", ") << jsonStr(Key) << ": " << jsonNum(V);
      FirstMeta = false;
    }
    for (const auto &[Key, V] : MetaStr) {
      OS << (FirstMeta ? "" : ", ") << jsonStr(Key) << ": " << jsonStr(V);
      FirstMeta = false;
    }
    OS << "},\n  \"notes\": [";
    for (size_t I = 0; I < Notes.size(); ++I)
      OS << jsonStr(Notes[I]) << (I + 1 < Notes.size() ? ", " : "");
    OS << "]\n}\n";
    std::printf("wrote %s\n", Path.c_str());
  }

  /// `BENCH_<name>.json` in the working directory, where <name> is the
  /// binary's basename with any "bench_" prefix stripped.
  static std::string jsonPathFor(const char *Argv0) {
    std::string Base = Argv0 ? Argv0 : "bench";
    size_t Slash = Base.find_last_of('/');
    if (Slash != std::string::npos)
      Base = Base.substr(Slash + 1);
    if (Base.rfind("bench_", 0) == 0)
      Base = Base.substr(6);
    return "BENCH_" + Base + ".json";
  }

  /// Prints the table, writes BENCH_<name>.json for the binary \p Argv0
  /// and \returns \p Code, the binary's exit status.
  int finish(const char *Argv0, int Code = 0) const {
    print();
    writeJson(jsonPathFor(Argv0));
    return Code;
  }

private:
  static std::string jsonStr(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += strFormat("\\%c", C);
      else if (C == '\n')
        Out += "\\n";
      else if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
    return Out + "\"";
  }
  static std::string jsonNum(double V) {
    if (std::isnan(V) || std::isinf(V))
      return "null";
    return strFormat("%.6g", V);
  }

  std::string Title;
  std::vector<Row> Rows;
  std::vector<std::string> Notes;
  std::vector<std::pair<std::string, double>> MetaNum;
  std::vector<std::pair<std::string, std::string>> MetaStr;
};

/// Simulated time of kernel \p K on \p Device (buffers auto-allocated).
/// With \p Cache, structurally identical repeat measurements are memoized.
inline PerfResult measure(const DeviceSpec &Device, const KernelFunction &K,
                          SimCache *Cache = nullptr) {
  Simulator Sim(Device);
  Sim.setCache(Cache);
  BufferSet B;
  DiagnosticsEngine D;
  return Sim.runPerformance(K, B, D);
}

/// Parses + measures the naive version of \p A at size \p N.
inline PerfResult measureNaive(Module &M, const DeviceSpec &Device, Algo A,
                               long long N) {
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  if (!K)
    return PerfResult();
  return measure(Device, *K);
}

/// Full compile (empirical search included) and measurement. Pass custom
/// CompileOptions to control search lanes, pruning or the sim cache; the
/// Device field is overwritten with \p Device.
inline CompileOutput compileBest(Module &M, const DeviceSpec &Device, Algo A,
                                 long long N,
                                 CompileOptions Opt = CompileOptions()) {
  DiagnosticsEngine D;
  KernelFunction *K = parseNaive(M, A, N, D);
  CompileOutput Out;
  if (!K)
    return Out;
  GpuCompiler GC(M, D);
  Opt.Device = Device;
  return GC.compile(*K, Opt);
}

inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

} // namespace bench
} // namespace gpuc

#endif // GPUC_BENCH_BENCHUTIL_H
