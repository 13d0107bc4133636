//===-- perfbench/src/Bench.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run configuration, the
/// sample series and their statistics, the result a workload fills in, and
/// the span recorder of the traced run. Spans are recorded only from the
/// benchmark's own code, around calls into the compiler's public API; the
/// compiler itself is not instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// Command-line settings of one benchmark invocation.
struct RunConfig {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root: the programs under examples/ are read from here.
  std::string Root = ".";
  /// Scratch directory (caches, socket); removed when the run ends.
  std::string WorkDir;
  /// Trace files and self-test artifacts.
  std::string OutDir;
  std::string ExpectedFile;
  /// Search lanes / fuzz lanes (nproc).
  int Lanes = 1;
  /// Short setting for the self-test: fewer programs, requests and seeds.
  bool Smoke = false;
  /// Negative self-test: "reference" corrupts one serve reference, "fuzz"
  /// injects a miscompile through OracleOptions::Inject.
  std::string Inject;
  /// Setup repetitions; setup_s is their median.
  int SetupReps = 3;
};

/// Samples of one quantity.
struct Series {
  std::vector<double> V;
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  /// Linear-interpolated quantile, \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  /// Geometric mean of the positive samples; 0 when there are none.
  double geomean() const;
  double sum() const;
};

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  long long Samples = 1;
};

/// What a workload run produced.
struct Result {
  long long Attempted = 0;
  long long Failed = 0;
  /// First few failure descriptions (printed, not part of the JSON).
  std::vector<std::string> Errors;
  /// Metrics named in BENCHMARK.json's end_to_end list.
  std::vector<Metric> EndToEnd;
  /// Workload-specific rows printed for people (per-program times, the
  /// latency split by request class, ...).
  std::vector<Metric> Rows;
  /// Per-layer metrics of the traced run, by name.
  std::map<std::string, double> Layer;
  /// Run metadata (nproc, lanes, clients, build, seed, ...).
  std::vector<std::pair<std::string, std::string>> Meta;

  void fail(const std::string &Why);
  void row(const std::string &Name, const std::string &Unit, double Value,
           long long Samples) {
    Rows.push_back({Name, Unit, Value, Samples});
  }
  void metric(const std::string &Name, const std::string &Unit, double Value,
              long long Samples) {
    EndToEnd.push_back({Name, Unit, Value, Samples});
  }
  void meta(const std::string &Key, const std::string &Value) {
    Meta.emplace_back(Key, Value);
  }
};

/// Runs \p Setup \p Reps times and returns the median wall in seconds.
/// Every repetition but the last is torn down by the next one, so the
/// state left behind is the last repetition's.
template <typename Fn> double timedSetup(int Reps, Fn &&Setup) {
  Series S;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Setup();
    S.add(msSince(T0) / 1000.0);
  }
  return S.median();
}

/// FNV-1a over \p S (winner-text fingerprints in the expected file).
uint64_t fnv1a(const std::string &S);
std::string hex64(uint64_t V);

/// Peak resident set of this process in MB (getrusage).
double peakRssMb();

/// In-memory span recorder for the traced run. Thread-safe; disabled
/// recorders drop everything. A span's layer is the part of its name
/// before the first '.'.
class Trace {
public:
  struct Span {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Id = 0, Parent = -1;
    uint64_t Tid = 0;
    /// Program or request the span belongs to.
    std::string Key;
  };

  explicit Trace(bool Enabled) : Enabled(Enabled), T0(Clock::now()) {}
  bool enabled() const { return Enabled; }

  /// Opens a span; \returns its id (-1 when disabled).
  int begin(const std::string &Name, int Parent, const std::string &Key);
  void end(int Id);
  /// Records an already measured interval.
  int add(const std::string &Name, Clock::time_point Start,
          Clock::time_point End, int Parent, const std::string &Key);

  /// RAII span.
  class Scope {
  public:
    Scope(Trace &T, const std::string &Name, int Parent,
          const std::string &Key)
        : T(T), Id(T.begin(Name, Parent, Key)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return Id; }

  private:
    Trace &T;
    int Id;
  };

  /// Per-span self time (duration minus the union of its children's
  /// intervals), summed by layer, in ms. Only spans whose Key starts with
  /// \p KeyPrefix count (empty = all).
  std::map<std::string, double> layerSelfMs(const std::string &KeyPrefix = "")
      const;
  /// Sum of durations of spans named \p Name, in ms.
  double totalMs(const std::string &Name) const;
  size_t count(const std::string &Name) const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool writeChromeJson(const std::string &Path) const;

private:
  double nowUs() const;
  double toUs(Clock::time_point P) const;

  bool Enabled;
  Clock::time_point T0;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// Per-layer metric names, units and directions, in report order. Every
/// traced run prints all of them; a layer that does no work in a workload
/// reports 0 there.
struct LayerMetricDef {
  const char *Name;
  const char *Unit;
  const char *Better;
};
const std::vector<LayerMetricDef> &layerMetricDefs();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
