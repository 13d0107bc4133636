//===-- serve/Server.cpp - The resident compile daemon --------------------===//

#include "serve/Server.h"

#include "exec/Parallel.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>

#include <sys/socket.h>
#include <unistd.h>

using namespace gpuc;
using namespace gpuc::serve;

/// One admitted compile request. The connection thread waits on Done;
/// the worker fills Result. Cancel is armed by the connection thread at
/// the request deadline (or by stop()) and observed by the search at its
/// per-candidate checks.
struct Server::Job {
  CompileJob Req;
  bool Quick = false;
  std::atomic<bool> Cancel{false};

  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  /// Completed by the shutdown drain, not a worker.
  bool Aborted = false;
  CompileResult Result;
  WallTimer Timer; ///< runs from admission to completion
};

namespace {

void sendError(const Fd &Conn, ErrCode Code, const std::string &Msg) {
  ByteWriter W;
  encodeError(W, {Code, Msg});
  sendFrame(Conn, MsgType::ErrorResp, W.buffer());
}

double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

} // namespace

Server::Server(ServerOptions O) : Opts(std::move(O)) {}

Server::~Server() { stop(); }

bool Server::start(std::string &Err) {
  if (Running.load()) {
    Err = "server already running";
    return false;
  }
  if (!Opts.CacheDir.empty()) {
    // The daemon's whole point is ONE disk-cache open for its lifetime;
    // every request shares this handle (ServeTest pins the open count).
    Disk = std::make_unique<DiskCache>(Opts.CacheDir);
    if (!Disk->valid()) {
      Err = strFormat("cannot use cache directory '%s'",
                      Opts.CacheDir.c_str());
      Disk.reset();
      return false;
    }
  }
  Mem.setBackend(Disk.get());

  Listen = listenUnix(Opts.SocketPath, Err);
  if (!Listen.valid())
    return false;

  NumWorkers = Opts.Workers ? Opts.Workers : defaultConcurrency();
  Stopping.store(false);
  Running.store(true);
  Acceptor = std::thread(&Server::acceptLoop, this);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back(&Server::workerLoop, this);
  return true;
}

void Server::stop() {
  Running.store(false);
  if (Stopping.exchange(true))
    return; // teardown already ran (stop() is idempotent)

  // Unblock the accept loop and the workers.
  Listen.shutdownBoth();
  QueueCv.notify_all();

  // Cancel in-flight searches; they back out at the next candidate.
  {
    std::lock_guard<std::mutex> L(RunningMu);
    for (Job *J : RunningJobs)
      J->Cancel.store(true);
  }

  // Shut down live connections so parked recv/send calls return. From
  // the client's side this is indistinguishable from a killed daemon —
  // the fault battery drives fallback through exactly this edge.
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (int RawFd : LiveConnFds)
      ::shutdown(RawFd, SHUT_RDWR);
  }

  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();

  // Workers are gone; complete whatever is still queued as Aborted so
  // waiting connection threads wake and answer ShuttingDown.
  {
    std::lock_guard<std::mutex> L(QueueMu);
    for (auto *Q : {&SearchQ, &QuickQ}) {
      for (const std::shared_ptr<Job> &J : *Q) {
        {
          std::lock_guard<std::mutex> JL(J->Mu);
          J->Aborted = true;
          J->Done = true;
        }
        J->Cv.notify_all();
      }
      Q->clear();
    }
    QueuedCount = 0;
  }

  // Wait for every (detached) connection thread to unwind.
  {
    std::unique_lock<std::mutex> L(ConnMu);
    ConnCv.wait(L, [&] { return ActiveConns == 0; });
  }

  Listen.reset();
  ::unlink(Opts.SocketPath.c_str());
}

void Server::acceptLoop() {
  for (;;) {
    Fd Conn = acceptUnix(Listen);
    if (!Conn.valid() || Stopping.load())
      return;
    std::lock_guard<std::mutex> L(ConnMu);
    if (Stopping.load())
      return;
    LiveConnFds.push_back(Conn.get());
    ++ActiveConns;
    Connections.fetch_add(1);
    std::thread(&Server::connectionLoop, this, std::move(Conn)).detach();
  }
}

void Server::connectionLoop(Fd Conn) {
  const int RawFd = Conn.get();
  while (!Stopping.load()) {
    MsgType Type;
    std::string Payload;
    const char *Why = nullptr;
    IoStatus S = recvFrame(Conn, Type, Payload, Opts.IoTimeoutMs, &Why);
    if (S == IoStatus::Ok) {
      switch (Type) {
      case MsgType::PingReq:
        sendFrame(Conn, MsgType::PongResp, std::string());
        continue;
      case MsgType::StatsReq: {
        ByteWriter W;
        W.str(statsJson());
        sendFrame(Conn, MsgType::StatsResp, W.buffer());
        continue;
      }
      case MsgType::ShutdownReq: {
        sendFrame(Conn, MsgType::OkResp, std::string());
        {
          std::lock_guard<std::mutex> L(ShutdownMu);
          ShutdownRequested = true;
        }
        ShutdownCv.notify_all();
        continue; // the owner thread calls stop()
      }
      case MsgType::CompileReq:
        handleCompile(Conn, std::move(Payload));
        continue;
      default:
        ProtocolErrors.fetch_add(1);
        sendError(Conn, ErrCode::Malformed, "unexpected message type");
        break; // desynchronized: close
      }
      break;
    }
    if (S == IoStatus::Malformed) {
      // A garbled header or checksum mismatch leaves the stream without
      // a trustworthy frame boundary; answer once and close.
      ProtocolErrors.fetch_add(1);
      sendError(Conn, ErrCode::Malformed, Why ? Why : "undecodable frame");
      break;
    }
    if (S == IoStatus::Truncated || S == IoStatus::Timeout)
      ProtocolErrors.fetch_add(1); // vanished or stalled mid-message
    break; // Closed / Truncated / Timeout / Error all end the session
  }

  {
    std::lock_guard<std::mutex> L(ConnMu);
    LiveConnFds.erase(
        std::remove(LiveConnFds.begin(), LiveConnFds.end(), RawFd),
        LiveConnFds.end());
    --ActiveConns;
    // Notify under the lock: this thread is detached, so stop()'s waiter
    // must not be able to return (and let ~Server destroy the condvar)
    // while the notify is still in flight.
    ConnCv.notify_all();
  }
}

void Server::handleCompile(const Fd &Conn, std::string Payload) {
  auto J = std::make_shared<Job>();
  {
    ByteReader R(Payload);
    if (!decodeCompileJob(R, J->Req)) {
      ProtocolErrors.fetch_add(1);
      sendError(Conn, ErrCode::Malformed,
                "undecodable compile request payload");
      return;
    }
  }
  DeviceSpec Dev;
  if (!deviceFromName(J->Req.DeviceName, Dev)) {
    sendError(Conn, ErrCode::Unsupported,
              strFormat("unknown device '%s'", J->Req.DeviceName.c_str()));
    return;
  }
  // Fixed-factor compiles skip the design-space search entirely; they
  // ride the Quick class so a burst of searches cannot starve them.
  J->Quick = J->Req.BlockN > 0 || J->Req.ThreadM > 0;

  if (Stopping.load() || !enqueue(J)) {
    if (Stopping.load()) {
      sendError(Conn, ErrCode::ShuttingDown, "daemon is shutting down");
    } else {
      RejectedBusy.fetch_add(1);
      sendError(Conn, ErrCode::Busy, "admission queue full");
    }
    return;
  }

  const unsigned TimeoutMs =
      J->Req.TimeoutMs ? J->Req.TimeoutMs : Opts.RequestTimeoutMs;
  bool TimedOut = false;
  {
    std::unique_lock<std::mutex> L(J->Mu);
    if (TimeoutMs) {
      if (!J->Cv.wait_for(L, std::chrono::milliseconds(TimeoutMs),
                          [&] { return J->Done; })) {
        // Deadline passed: arm the cancel flag and wait for the search
        // to back out gracefully (it withdraws its partial result).
        J->Cancel.store(true);
        TimedOut = true;
        J->Cv.wait(L, [&] { return J->Done; });
      }
    } else {
      J->Cv.wait(L, [&] { return J->Done; });
    }
  }

  if (J->Aborted || Stopping.load()) {
    // Covers the shutdown drain AND a job whose search stop() cancelled
    // mid-flight — its withdrawn partial result must never ship as a
    // normal response.
    sendError(Conn, ErrCode::ShuttingDown, "daemon is shutting down");
    return;
  }
  if (TimedOut) {
    Timeouts.fetch_add(1);
    sendError(Conn, ErrCode::Timeout,
              strFormat("request exceeded its %u ms deadline; search "
                        "cancelled",
                        TimeoutMs));
    return;
  }

  recordLatency(J->Timer.elapsedMs(), J->Quick,
                J->Result.WarmFastPath != 0, J->Result.CritPathMs);
  ByteWriter W;
  encodeCompileResult(W, J->Result);
  sendFrame(Conn, MsgType::ResultResp, W.buffer());
}

bool Server::enqueue(const std::shared_ptr<Job> &J) {
  {
    std::lock_guard<std::mutex> L(QueueMu);
    if (Stopping.load() || QueuedCount >= Opts.QueueMax)
      return false;
    (J->Quick ? QuickQ : SearchQ).push_back(J);
    ++QueuedCount;
    uint64_t Peak = QueuePeak.load();
    while (QueuedCount > Peak &&
           !QueuePeak.compare_exchange_weak(Peak, QueuedCount)) {
    }
  }
  QueueCv.notify_one();
  return true;
}

std::shared_ptr<Server::Job> Server::dequeue() {
  std::unique_lock<std::mutex> L(QueueMu);
  QueueCv.wait(L, [&] { return Stopping.load() || QueuedCount > 0; });
  if (Stopping.load())
    return nullptr; // stop() completes whatever is left as Aborted
  // Fairness: alternate which class gets first pick, so neither a burst
  // of searches nor a burst of quick jobs can monopolize the workers.
  auto *First = PopQuickNext ? &QuickQ : &SearchQ;
  auto *Second = PopQuickNext ? &SearchQ : &QuickQ;
  PopQuickNext = !PopQuickNext;
  auto *Q = First->empty() ? Second : First;
  std::shared_ptr<Job> J = Q->front();
  Q->pop_front();
  --QueuedCount;
  return J;
}

void Server::workerLoop() {
  while (std::shared_ptr<Job> J = dequeue()) {
    {
      std::lock_guard<std::mutex> L(RunningMu);
      RunningJobs.insert(J.get());
    }
    CompileResult R;
    if (Stopping.load() || J->Cancel.load()) {
      R.Code = 1;
      R.Err = "search cancelled\n";
    } else {
      ServiceContext Ctx;
      Ctx.Mem = &Mem;
      Ctx.Disk = Disk.get();
      Ctx.Cancel = &J->Cancel;
      Ctx.Jobs = Opts.InnerJobs;
      R = runCompileJob(J->Req, Ctx);
    }
    {
      std::lock_guard<std::mutex> L(RunningMu);
      RunningJobs.erase(J.get());
    }
    {
      std::lock_guard<std::mutex> JL(J->Mu);
      J->Result = std::move(R);
      J->Done = true;
    }
    J->Cv.notify_all();
  }
}

void Server::recordLatency(double Ms, bool Quick, bool Warm,
                           double CritPathMs) {
  Served.fetch_add(1);
  (Quick ? ServedQuick : ServedSearch).fetch_add(1);
  if (Warm)
    WarmServed.fetch_add(1);
  std::lock_guard<std::mutex> L(LatencyMu);
  LatenciesMs.push_back(Ms);
  if (LatenciesMs.size() > LatencyWindow)
    LatenciesMs.pop_front();
  MaxLatencyMs = std::max(MaxLatencyMs, Ms);
  MaxCritPathMs = std::max(MaxCritPathMs, CritPathMs);
}

ServerStats Server::stats() const {
  ServerStats S;
  S.Connections = Connections.load();
  S.Served = Served.load();
  S.ServedSearch = ServedSearch.load();
  S.ServedQuick = ServedQuick.load();
  S.WarmFastPath = WarmServed.load();
  S.RejectedBusy = RejectedBusy.load();
  S.Timeouts = Timeouts.load();
  S.ProtocolErrors = ProtocolErrors.load();
  S.QueuePeak = QueuePeak.load();
  {
    std::lock_guard<std::mutex> L(QueueMu);
    S.QueueDepth = QueuedCount;
  }
  S.DiskOpens = Disk ? 1 : 0;
  S.MemHits = Mem.hits();
  S.MemMisses = Mem.misses();
  S.DiskTierHits = Mem.diskHits();
  if (Disk)
    S.Disk = Disk->stats();
  std::vector<double> Sorted;
  {
    std::lock_guard<std::mutex> L(LatencyMu);
    Sorted.assign(LatenciesMs.begin(), LatenciesMs.end());
    S.LatencyMaxMs = MaxLatencyMs;
    S.MaxCritPathMs = MaxCritPathMs;
  }
  std::sort(Sorted.begin(), Sorted.end());
  S.LatencyP50Ms = percentile(Sorted, 0.50);
  S.LatencyP90Ms = percentile(Sorted, 0.90);
  S.LatencyP99Ms = percentile(Sorted, 0.99);
  return S;
}

std::string Server::statsJson() const {
  ServerStats S = stats();
  const uint64_t MemLookups = S.MemHits + S.DiskTierHits + S.MemMisses;
  const double MemRate =
      MemLookups ? static_cast<double>(S.MemHits + S.DiskTierHits) /
                       static_cast<double>(MemLookups)
                 : 1.0;
  return strFormat(
      "{\"socket\": \"%s\", \"workers\": %u, \"queue_max\": %zu, "
      "\"connections\": %llu, \"served\": %llu, \"served_search\": %llu, "
      "\"served_quick\": %llu, \"warm_fast_path\": %llu, "
      "\"rejected_busy\": %llu, \"timeouts\": %llu, "
      "\"protocol_errors\": %llu, \"queue_depth\": %llu, "
      "\"queue_peak\": %llu, \"disk_opens\": %llu, "
      "\"mem_hits\": %llu, \"mem_misses\": %llu, \"disk_tier_hits\": %llu, "
      "\"mem_hit_rate\": %.6f, "
      "\"disk_sim_hits\": %llu, \"disk_sim_misses\": %llu, "
      "\"disk_text_hits\": %llu, \"disk_text_misses\": %llu, "
      "\"disk_writes\": %llu, \"disk_corrupt\": %llu, "
      "\"disk_quarantined\": %llu, \"disk_hit_rate\": %.6f, "
      "\"max_crit_path_ms\": %.3f, \"latency_ms\": "
      "{\"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \"max\": %.3f}}\n",
      jsonEscape(Opts.SocketPath).c_str(), NumWorkers, Opts.QueueMax,
      (unsigned long long)S.Connections, (unsigned long long)S.Served,
      (unsigned long long)S.ServedSearch,
      (unsigned long long)S.ServedQuick,
      (unsigned long long)S.WarmFastPath,
      (unsigned long long)S.RejectedBusy, (unsigned long long)S.Timeouts,
      (unsigned long long)S.ProtocolErrors,
      (unsigned long long)S.QueueDepth, (unsigned long long)S.QueuePeak,
      (unsigned long long)S.DiskOpens, (unsigned long long)S.MemHits,
      (unsigned long long)S.MemMisses,
      (unsigned long long)S.DiskTierHits, MemRate,
      (unsigned long long)S.Disk.SimHits,
      (unsigned long long)S.Disk.SimMisses,
      (unsigned long long)S.Disk.TextHits,
      (unsigned long long)S.Disk.TextMisses,
      (unsigned long long)S.Disk.Writes, (unsigned long long)S.Disk.Corrupt,
      (unsigned long long)S.Disk.Quarantined, S.Disk.hitRate(),
      S.MaxCritPathMs, S.LatencyP50Ms, S.LatencyP90Ms, S.LatencyP99Ms,
      S.LatencyMaxMs);
}

bool Server::waitForShutdownRequest(unsigned TimeoutMs) {
  std::unique_lock<std::mutex> L(ShutdownMu);
  if (TimeoutMs == 0) {
    ShutdownCv.wait(L, [&] { return ShutdownRequested || Stopping.load(); });
    return ShutdownRequested;
  }
  ShutdownCv.wait_for(L, std::chrono::milliseconds(TimeoutMs),
                      [&] { return ShutdownRequested || Stopping.load(); });
  return ShutdownRequested;
}
