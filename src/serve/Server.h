//===-- serve/Server.h - The resident compile daemon ------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gpucd's engine: a Unix-domain-socket server that compiles requests
/// from many concurrent clients against ONE warm in-memory + disk cache
/// (the "millions of users" amortization: the design-space search is
/// expensive cold and almost free warm, so keep the warmth resident).
///
///   - One accept loop; one thread per connection parsing frames.
///   - Admission control: a bounded two-class queue. Parsing threads
///     enqueue; when the queue is full the request is answered Busy
///     immediately (the thin client falls back in-process) instead of
///     building an unbounded backlog.
///   - Fair scheduling: workers alternate between the Search class
///     (full design-space searches) and the Quick class (fixed-factor
///     compiles and lints), so a burst of huge search jobs cannot
///     starve small requests. Stats/ping are answered inline by the
///     connection thread and never queue at all.
///   - Per-request isolation: every job runs serve/Service.h with its
///     own Module and DiagnosticsEngine; only the caches are shared
///     (the SimCache under its one mutex; the DiskCache is opened
///     exactly once per daemon lifetime — test-pinned via
///     DiskCache::openCount()).
///   - Per-request timeouts: the connection thread arms the job's
///     cancel flag at the deadline; the search notices at the next
///     per-candidate check, withdraws its partial result, and the
///     client gets a clean Timeout error.
///   - --stats: a JSON snapshot of hit rates, queue depth, crit-path
///     and per-request latency percentiles.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SERVE_SERVER_H
#define GPUC_SERVE_SERVER_H

#include "cache/DiskCache.h"
#include "serve/Service.h"
#include "serve/Socket.h"
#include "sim/SimCache.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace gpuc {
namespace serve {

struct ServerOptions {
  std::string SocketPath;
  /// Persistent cache directory; empty = memory tier only.
  std::string CacheDir;
  /// Worker threads executing compile jobs. 0 = hardware concurrency.
  unsigned Workers = 0;
  /// Search lanes per request. Requests parallelize across each other,
  /// so the default keeps each search serial (identical output either
  /// way, test-enforced repo-wide).
  int InnerJobs = 1;
  /// Admission bound across both classes; a full queue answers Busy.
  size_t QueueMax = 64;
  /// Default per-request deadline; 0 = no deadline. A request's own
  /// TimeoutMs, when set, overrides this.
  unsigned RequestTimeoutMs = 0;
  /// Socket receive deadline between/within frames. Bounds how long a
  /// half-open or stalled peer can pin a connection thread.
  unsigned IoTimeoutMs = 10000;
};

/// Numeric snapshot of the daemon's counters (statsJson renders it).
struct ServerStats {
  uint64_t Connections = 0;
  uint64_t Served = 0;
  uint64_t ServedSearch = 0;
  uint64_t ServedQuick = 0;
  uint64_t WarmFastPath = 0;
  uint64_t RejectedBusy = 0;
  uint64_t Timeouts = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t QueueDepth = 0;
  uint64_t QueuePeak = 0;
  /// DiskCache instances this server opened (0 or 1 — never more).
  uint64_t DiskOpens = 0;
  uint64_t MemHits = 0;
  uint64_t MemMisses = 0;
  uint64_t DiskTierHits = 0;
  DiskCacheStats Disk;
  double MaxCritPathMs = 0;
  /// Per-request wall-clock (enqueue to response ready): percentiles over
  /// the last Server::LatencyWindow requests, the lifetime maximum.
  double LatencyP50Ms = 0, LatencyP90Ms = 0, LatencyP99Ms = 0,
         LatencyMaxMs = 0;
};

/// The daemon. start() binds the socket and spawns the accept loop and
/// worker pool; stop() tears everything down (in-flight requests are
/// cancelled, queued ones answered ShuttingDown, connections shut down).
/// Destruction stops implicitly. Tests run it in-process; tools/gpucd
/// wraps it in a binary.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  bool start(std::string &Err);
  void stop();
  bool running() const { return Running.load(); }

  unsigned workers() const { return NumWorkers; }

  ServerStats stats() const;
  std::string statsJson() const;

  /// Blocks until a client's ShutdownReq arrives or \p TimeoutMs passes
  /// (0 = wait forever). \returns true when shutdown was requested.
  /// The caller then invokes stop() — the daemon never joins itself
  /// from a connection thread.
  bool waitForShutdownRequest(unsigned TimeoutMs = 0);

  /// Requests the latency percentiles cover, so the record stays bounded:
  /// the smallest power of two whose p99 has ten requests above it.
  static constexpr size_t LatencyWindow = 1024;

private:
  struct Job; ///< opaque outside Server.cpp

  void acceptLoop();
  void connectionLoop(Fd Conn);
  void workerLoop();
  bool enqueue(const std::shared_ptr<Job> &J);
  std::shared_ptr<Job> dequeue();
  void handleCompile(const Fd &Conn, std::string Payload);
  void recordLatency(double Ms, bool Quick, bool Warm, double CritPathMs);

  ServerOptions Opts;
  unsigned NumWorkers = 1;

  SimCache Mem;
  std::unique_ptr<DiskCache> Disk;

  Fd Listen;
  std::thread Acceptor;
  std::vector<std::thread> Workers;

  // Connection registry: stop() shuts every live connection down so
  // parked recv/send calls unblock immediately, then waits for the
  // (detached) connection threads to drain via ActiveConns.
  std::mutex ConnMu;
  std::condition_variable ConnCv;
  std::vector<int> LiveConnFds;
  size_t ActiveConns = 0;

  // Two-class bounded queue + fairness rotation.
  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<Job>> SearchQ, QuickQ;
  size_t QueuedCount = 0;
  bool PopQuickNext = false;

  // Jobs executing on a worker, so stop() can cancel them.
  std::mutex RunningMu;
  std::set<Job *> RunningJobs;

  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};

  std::mutex ShutdownMu;
  std::condition_variable ShutdownCv;
  bool ShutdownRequested = false;

  // Counters.
  std::atomic<uint64_t> Connections{0}, Served{0}, ServedSearch{0},
      ServedQuick{0}, WarmServed{0}, RejectedBusy{0}, Timeouts{0},
      ProtocolErrors{0}, QueuePeak{0};
  mutable std::mutex LatencyMu;
  std::deque<double> LatenciesMs; ///< the last LatencyWindow, oldest first
  double MaxLatencyMs = 0;
  double MaxCritPathMs = 0;
};

} // namespace serve
} // namespace gpuc

#endif // GPUC_SERVE_SERVER_H
