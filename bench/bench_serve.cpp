//===-- bench/bench_serve.cpp - Daemon round-trip vs in-process -----------===//
//
// The case for gpucd in numbers: the design-space search is expensive
// exactly once. A cold in-process gpucc pays the full mm search; a cold
// daemon pays it too (plus the wire); every later client of the same
// daemon gets the stored winner replayed from the shared warm cache for
// the price of a Unix-socket round trip.
//
// Three configurations over the same mm job (N=256, gtx280, full search):
//
//   inproc_cold   serve::runCompileJob against fresh caches — what a
//                 standalone gpucc process does
//   daemon_cold   first request into a freshly started gpucd (in-process
//                 Server instance), RTT measured at the client
//   daemon_warm   the same request repeated; median RTT over 8 trips
//
// Acceptance gates (exit code 1 when violated):
//   - the warm daemon RTT is >= 5x lower than the cold in-process wall
//   - all three paths produce byte-identical winner text
//   - the daemon opened its DiskCache exactly once across the whole run
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cache/DiskCache.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/Timer.h"

#include <algorithm>
#include <filesystem>
#include <memory>

using namespace gpuc;
using namespace gpuc::bench;
using namespace gpuc::serve;

namespace {

constexpr long long MmN = 256;
constexpr int WarmTrips = 8;

CompileJob mmJob() {
  CompileJob J;
  J.Name = "bench/mm256.cu";
  J.Source = naiveSource(Algo::MM, MmN);
  J.Flags = jobDefaultFlags();
  return J;
}

/// The daemon under test, resident across the three configurations.
struct DaemonFixture {
  std::string Dir = DiskCache::makeTempDir("gpuc-bench-serve");
  std::unique_ptr<Server> S;
  uint64_t OpensBefore = 0;

  std::string sock() const { return Dir + "/d.sock"; }

  bool start() {
    OpensBefore = DiskCache::openCount();
    ServerOptions Opts;
    Opts.SocketPath = sock();
    Opts.CacheDir = Dir + "/cache";
    Opts.Workers = 2;
    S = std::make_unique<Server>(Opts);
    std::string Err;
    return S->start(Err);
  }

  ~DaemonFixture() {
    if (S)
      S->stop();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

DaemonFixture &daemon() {
  static DaemonFixture D;
  return D;
}

double InprocColdMs = 0, DaemonColdMs = 0, DaemonWarmMs = 0;
std::string InprocText, DaemonColdText, DaemonWarmText;
bool DaemonOk = true;
uint64_t WarmFastPathHits = 0;

void runInprocCold() {
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  WallTimer T;
  CompileResult R = runCompileJob(mmJob(), Ctx);
  InprocColdMs = T.elapsedMs();
  InprocText = R.Code == 0 ? R.Out : std::string();
}

void runDaemonCold() {
  if (!daemon().start()) {
    DaemonOk = false;
    return;
  }
  CompileResult R;
  std::string Err;
  WallTimer T;
  ClientStatus St = compileViaDaemon(daemon().sock(), mmJob(), R, Err);
  DaemonColdMs = T.elapsedMs();
  DaemonOk = St == ClientStatus::Ok && R.Code == 0;
  DaemonColdText = R.Out;
}

void runDaemonWarm() {
  std::vector<double> Rtts;
  for (int I = 0; I < WarmTrips; ++I) {
    CompileResult R;
    std::string Err;
    WallTimer T;
    ClientStatus St = compileViaDaemon(daemon().sock(), mmJob(), R, Err);
    Rtts.push_back(T.elapsedMs());
    if (St != ClientStatus::Ok || R.Code != 0)
      DaemonOk = false;
    DaemonWarmText = R.Out;
    WarmFastPathHits += R.WarmFastPath ? 1 : 0;
  }
  std::sort(Rtts.begin(), Rtts.end());
  DaemonWarmMs = Rtts[Rtts.size() / 2]; // median
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Daemon round-trip vs in-process: mm 256 full search on GTX 280");
  // The warm config reuses the daemon (and the cache heat) the cold
  // config left behind.
  runInprocCold();
  runDaemonCold();
  runDaemonWarm();

  Report &Rep = Report::get();
  ServerStats St;
  uint64_t DiskOpens = 0;
  if (daemon().S) {
    St = daemon().S->stats();
    DiskOpens = DiskCache::openCount() - daemon().OpensBefore;
    daemon().S->stop();
  }

  Rep.add("inproc_cold", {{"wall_ms", InprocColdMs}});
  Rep.add("daemon_cold", {{"rtt_ms", DaemonColdMs}});
  Rep.add("daemon_warm (median of 8)", {{"rtt_ms", DaemonWarmMs}});

  const double WarmSpeedup =
      DaemonWarmMs > 0 ? InprocColdMs / DaemonWarmMs : 0.0;
  const bool ByteIdentical = !InprocText.empty() &&
                             InprocText == DaemonColdText &&
                             InprocText == DaemonWarmText;
  const bool OneOpen = DiskOpens == 1;
  const bool SpeedupOk = WarmSpeedup >= 5.0;

  Rep.addMeta("warm_speedup_vs_inproc_cold", WarmSpeedup);
  Rep.addMeta("cold_daemon_overhead_ms", DaemonColdMs - InprocColdMs);
  Rep.addMeta("winner_byte_identical", ByteIdentical ? 1.0 : 0.0);
  Rep.addMeta("daemon_disk_opens", static_cast<double>(DiskOpens));
  Rep.addMeta("warm_fast_path_hits", static_cast<double>(WarmFastPathHits));
  Rep.addMeta("daemon_served", static_cast<double>(St.Served));
  Rep.addMeta("daemon_mem_hits", static_cast<double>(St.MemHits));
  Rep.addMeta("daemon_latency_p50_ms", St.LatencyP50Ms);
  Rep.addMeta("daemon_latency_p99_ms", St.LatencyP99Ms);

  Rep.addNote("daemon_warm is the steady state: every request after the "
              "first replays the stored winner over one socket round trip");
  Rep.addNote("gates: warm RTT >= 5x below inproc_cold, byte-identical "
              "winners on all three paths, exactly one DiskCache open");

  return Rep.finish(argv[0],
                    DaemonOk && ByteIdentical && OneOpen && SpeedupOk ? 0 : 1);
}
