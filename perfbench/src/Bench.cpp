//===-- perfbench/src/Bench.cpp - Shared benchmark plumbing ---------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

double Series::quantile(double Q) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  const double Pos = Q * static_cast<double>(S.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, S.size() - 1);
  return S[Lo] + (S[Hi] - S[Lo]) * (Pos - static_cast<double>(Lo));
}

double Series::geomean() const {
  double LogSum = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

double Series::sum() const {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void Result::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

uint64_t perfbench::fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

double perfbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

double Trace::toUs(Clock::time_point P) const {
  return std::chrono::duration<double, std::micro>(P - T0).count();
}

double Trace::nowUs() const { return toUs(Clock::now()); }

static uint64_t threadKey() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
}

int Trace::begin(const std::string &Name, int Parent, const std::string &Key) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.StartUs = nowUs();
  S.Parent = Parent;
  S.Tid = threadKey();
  S.Key = Key;
  std::lock_guard<std::mutex> L(Mu);
  S.Id = static_cast<int>(Spans.size());
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void Trace::end(int Id) {
  if (!Enabled || Id < 0)
    return;
  const double Now = nowUs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[static_cast<size_t>(Id)].EndUs = Now;
}

int Trace::add(const std::string &Name, Clock::time_point Start,
               Clock::time_point End, int Parent, const std::string &Key) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.StartUs = toUs(Start);
  S.EndUs = toUs(End);
  S.Parent = Parent;
  S.Tid = threadKey();
  S.Key = Key;
  std::lock_guard<std::mutex> L(Mu);
  S.Id = static_cast<int>(Spans.size());
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::map<std::string, double>
Trace::layerSelfMs(const std::string &KeyPrefix) const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[static_cast<size_t>(S.Parent)].push_back({S.StartUs, S.EndUs});
  std::map<std::string, double> Out;
  for (const Span &S : Spans) {
    if (KeyPrefix.size() && S.Key.compare(0, KeyPrefix.size(), KeyPrefix))
      continue;
    // Union of the children's intervals clipped to the span.
    auto &K = Kids[static_cast<size_t>(S.Id)];
    std::sort(K.begin(), K.end());
    double Covered = 0, CurA = 0, CurB = -1;
    for (auto [A, B] : K) {
      A = std::max(A, S.StartUs);
      B = std::min(B, S.EndUs);
      if (B <= A)
        continue;
      if (A > CurB) {
        if (CurB > CurA)
          Covered += CurB - CurA;
        CurA = A;
        CurB = B;
      } else {
        CurB = std::max(CurB, B);
      }
    }
    if (CurB > CurA)
      Covered += CurB - CurA;
    const double Self = std::max(0.0, S.EndUs - S.StartUs - Covered);
    const std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Out[Layer] += Self / 1000.0;
  }
  return Out;
}

double Trace::totalMs(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += (S.EndUs - S.StartUs) / 1000.0;
  return Sum;
}

size_t Trace::count(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  size_t N = 0;
  for (const Span &S : Spans)
    N += S.Name == Name;
  return N;
}

static std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      O += Buf;
    } else {
      O += C;
    }
  }
  return O;
}

bool Trace::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  // Small dense thread ids read better in the viewer than hashed ones.
  std::map<uint64_t, int> Tids;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    int Tid = Tids.emplace(S.Tid, static_cast<int>(Tids.size()) + 1)
                  .first->second;
    const std::string Layer = S.Name.substr(0, S.Name.find('.'));
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"key\":\"%s\"}}",
                 I ? ",\n" : "", jsonEscape(S.Name).c_str(),
                 jsonEscape(Layer).c_str(), S.StartUs,
                 std::max(0.0, S.EndUs - S.StartUs), Tid, S.Id, S.Parent,
                 jsonEscape(S.Key).c_str());
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

const std::vector<LayerMetricDef> &perfbench::layerMetricDefs() {
  static const std::vector<LayerMetricDef> Defs = {
      {"parser.parses", "count", "lower"},
      {"parser.parse_ms", "ms", "lower"},
      {"parser.self_ms", "ms", "lower"},
      {"core.search_ms", "ms", "lower"},
      {"core.candidates", "count", "lower"},
      {"core.compile_ms_sum", "ms", "lower"},
      {"core.layout_points", "count", "lower"},
      {"core.layout_wins", "count", "higher"},
      {"core.stage.input_ms", "ms", "lower"},
      {"core.stage.vectorize_ms", "ms", "lower"},
      {"core.stage.coalesce_ms", "ms", "lower"},
      {"core.stage.merge_ms", "ms", "lower"},
      {"core.stage.partition-camping_ms", "ms", "lower"},
      {"core.stage.prefetch_ms", "ms", "lower"},
      {"core.stage.final_ms", "ms", "lower"},
      {"core.self_ms", "ms", "lower"},
      {"analysis.dataflow_ms", "ms", "lower"},
      {"analysis.static_pruned", "count", "higher"},
      {"analysis.static_prune_share", "ratio", "higher"},
      {"analysis.self_ms", "ms", "lower"},
      {"sim.probe_runs", "count", "lower"},
      {"sim.perf_runs", "count", "lower"},
      {"sim.prune_share", "ratio", "higher"},
      {"sim.perf_ms_sum", "ms", "lower"},
      {"sim.prepare_ms", "ms", "lower"},
      {"sim.lower_ms", "ms", "lower"},
      {"sim.exec_ms", "ms", "lower"},
      {"sim.exec_nomm_ms", "ms", "lower"},
      {"sim.timing_ms", "ms", "lower"},
      {"sim.functional_ms", "ms", "lower"},
      {"sim.scalar_fallbacks", "count", "lower"},
      {"sim.self_ms", "ms", "lower"},
      {"cache.mem_hits", "count", "higher"},
      {"cache.mem_misses", "count", "lower"},
      {"cache.mem_hit_rate", "ratio", "higher"},
      {"cache.key_ms", "ms", "lower"},
      {"cache.disk_sim_loads", "count", "lower"},
      {"cache.disk_sim_stores", "count", "lower"},
      {"cache.disk_sim_load_ms", "ms", "lower"},
      {"cache.disk_sim_store_ms", "ms", "lower"},
      {"cache.disk_text_load_ms", "ms", "lower"},
      {"cache.disk_text_store_ms", "ms", "lower"},
      {"cache.disk_errors", "count", "lower"},
      {"cache.self_ms", "ms", "lower"},
      {"exec.lanes", "count", "higher"},
      {"exec.crit_path_ms", "ms", "lower"},
      {"exec.lane_busy_share", "ratio", "higher"},
      {"exec.parallel_speedup", "x", "higher"},
      {"exec.sim_inflation", "x", "lower"},
      {"serve.connect_ms", "ms", "lower"},
      {"serve.send_ms", "ms", "lower"},
      {"serve.wait_ms", "ms", "lower"},
      {"serve.decode_ms", "ms", "lower"},
      {"serve.service_ms", "ms", "lower"},
      {"serve.server_p50_ms", "ms", "lower"},
      {"serve.server_p99_ms", "ms", "lower"},
      {"serve.queue_peak", "count", "lower"},
      {"serve.busy_rejects", "count", "lower"},
      {"serve.protocol_errors", "count", "lower"},
      {"serve.warm_share", "ratio", "higher"},
      {"serve.self_ms", "ms", "lower"},
      {"fuzz.cases", "count", "higher"},
      {"fuzz.dup_share", "ratio", "lower"},
      {"fuzz.variants_per_case", "count", "higher"},
      {"fuzz.gen_ms", "ms", "lower"},
      {"fuzz.oracle_ms", "ms", "lower"},
      {"fuzz.self_ms", "ms", "lower"},
      {"trace.overhead_ms", "ms", "lower"},
      {"trace.coverage", "ratio", "higher"},
      {"trace.coverage_mm1024", "ratio", "higher"},
  };
  return Defs;
}
