//===-- perfbench/src/ServeWarm.cpp - Warm daemon round trips -------------===//
//
// An in-process serve::Server (2 workers) is warmed with every search
// program; then a closed loop of 2 client threads sends requests, one
// connection each, as gpucc --connect does: each caller waits for its
// reply before sending the next. 9 in 10 requests are warm full-search
// jobs answered by the winner-replay fast path; 1 in 10 are fixed-factor
// jobs (the Quick class) that run compileVariant without a search. No
// request simulates, so a sim-only change must leave this workload alone;
// parse, cache key, DiskCache::loadText, framing and connection cost
// dominate: the cache's read side.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"
#include "Workloads.h"

#include "cache/DiskCache.h"
#include "parser/Parser.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "serve/Socket.h"
#include "sim/SimCache.h"

#include <filesystem>
#include <memory>
#include <random>
#include <thread>

using namespace gpuc;
using namespace gpuc::serve;
using namespace perfbench;

namespace {

constexpr int Clients = 2;
constexpr unsigned Workers = 2;

struct Request {
  CompileJob Job;
  bool Quick = false;
  /// In-process runCompileJob response the daemon must match byte for byte.
  std::string Reference;
};

struct Fixture {
  std::string Dir;
  std::unique_ptr<Server> S;
  std::vector<Request> Warm, Quick;

  std::string socket() const { return Dir + "/d.sock"; }
  void stop() {
    if (S)
      S->stop();
    S.reset();
    std::error_code EC;
    if (!Dir.empty())
      std::filesystem::remove_all(Dir, EC);
  }
};

/// Starts the daemon, warms it with every program and records the
/// in-process references. Failures are counted against the run.
void setUp(const RunConfig &C, const std::vector<Program> &Progs,
           const std::map<std::string, Winner> &Expected, int Rep,
           Fixture &F, Result &R) {
  F.Dir = C.WorkDir + "/serve" + std::to_string(Rep);
  std::filesystem::create_directories(F.Dir);
  ServerOptions Opts;
  Opts.SocketPath = F.socket();
  Opts.CacheDir = F.Dir + "/cache";
  Opts.Workers = Workers;
  F.S = std::make_unique<Server>(Opts);
  std::string Err;
  if (!F.S->start(Err)) {
    R.fail("daemon start failed: " + Err);
    return;
  }
  F.Warm.clear();
  F.Quick.clear();
  for (const Program &P : Progs) {
    Request W;
    W.Job = searchJob(P);
    F.Warm.push_back(W);
    auto It = Expected.find(P.Name);
    if (P.Pipeline || It == Expected.end())
      continue;
    // Fixed factors at the kernel's expected winner: the Quick class.
    Request Q;
    Q.Job = searchJob(P);
    Q.Job.BlockN = It->second.BlockN;
    Q.Job.ThreadM = It->second.ThreadM;
    Q.Quick = true;
    F.Quick.push_back(Q);
  }
  // Warm the daemon: every search program once, cold.
  for (Request &W : F.Warm) {
    CompileResult Res;
    ++R.Attempted;
    ClientStatus St = compileViaDaemon(F.socket(), W.Job, Res, Err);
    if (St != ClientStatus::Ok || Res.Code != 0)
      R.fail(W.Job.Name + ": warming request failed: " +
             clientStatusName(St) + " " + Err);
  }
  // References, in process against fresh caches.
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  Ctx.Jobs = C.Lanes;
  for (std::vector<Request> *Set : {&F.Warm, &F.Quick})
    for (Request &Q : *Set) {
      CompileResult Res = runCompileJob(Q.Job, Ctx);
      ++R.Attempted;
      if (Res.Code != 0)
        R.fail(Q.Job.Name + ": reference compile failed: " + Res.Err);
      Q.Reference = Res.Out;
    }
}

/// One closed-loop client's share of a pass.
struct ClientLog {
  Series WarmMs, QuickMs;
  /// Round trips by job ("<name>" or "<name>/quick").
  std::map<std::string, Series> PerJob;
  long long Attempted = 0;
  std::vector<std::string> Failures;
  long long Failed = 0;
};

void absorb(const ClientLog &L, Result &R) {
  R.Attempted += L.Attempted;
  for (const std::string &Why : L.Failures)
    R.fail(Why);
  R.Failed += L.Failed - static_cast<long long>(L.Failures.size());
}

const Request &draw(const Fixture &F, std::mt19937 &Rng) {
  if (!F.Quick.empty() && Rng() % 10 == 0)
    return F.Quick[Rng() % F.Quick.size()];
  return F.Warm[Rng() % F.Warm.size()];
}

void checkResponse(const Request &Q, ClientStatus St, const CompileResult &Res,
                   const std::string &Err, ClientLog &L) {
  std::string Why;
  if (St != ClientStatus::Ok)
    Why = std::string("status ") + clientStatusName(St) + " " + Err;
  else if (Res.Code != 0)
    Why = "exit code " + std::to_string(Res.Code);
  else if (!Q.Quick && !Res.WarmFastPath)
    Why = "warm request missed the fast path";
  else if (Res.Out != Q.Reference)
    Why = "response differs from the in-process reference";
  if (Why.empty())
    return;
  ++L.Failed;
  if (L.Failures.size() < 4)
    L.Failures.push_back(Q.Job.Name + (Q.Quick ? " (quick): " : ": ") + Why);
}

void clientLoop(const Fixture &F, unsigned Seed, int Requests, ClientLog &L) {
  std::mt19937 Rng(Seed);
  for (int I = 0; I < Requests; ++I) {
    const Request &Q = draw(F, Rng);
    CompileResult Res;
    std::string Err;
    auto T0 = Clock::now();
    ClientStatus St = compileViaDaemon(F.socket(), Q.Job, Res, Err);
    const double Ms = msSince(T0);
    (Q.Quick ? L.QuickMs : L.WarmMs).add(Ms);
    L.PerJob[Q.Job.Name + (Q.Quick ? "/quick" : "")].add(Ms);
    ++L.Attempted;
    checkResponse(Q, St, Res, Err, L);
  }
}

/// The traced client: compileViaDaemon's steps, each timed separately.
void tracedRequest(const Fixture &F, const Request &Q, int Id, Trace &T,
                   ClientLog &L) {
  const std::string Key = "req" + std::to_string(Id);
  Trace::Scope Root(T, "serve.request", -1, Key);
  CompileResult Res;
  std::string Err;
  ClientStatus St = ClientStatus::Ok;
  Fd Sock;
  {
    Trace::Scope S(T, "serve.connect", Root.id(), Key);
    Sock = connectUnix(F.socket(), Err);
  }
  std::string Payload;
  MsgType Type = MsgType::ResultResp;
  if (!Sock.valid()) {
    St = ClientStatus::Unreachable;
  } else {
    bool Sent = false;
    {
      Trace::Scope S(T, "serve.send", Root.id(), Key);
      ByteWriter W;
      encodeCompileJob(W, Q.Job);
      Sent = sendFrame(Sock, MsgType::CompileReq, W.buffer());
    }
    IoStatus IS = IoStatus::Error;
    if (Sent) {
      Trace::Scope S(T, "serve.wait", Root.id(), Key);
      IS = recvFrame(Sock, Type, Payload, 0);
    }
    if (!Sent || IS != IoStatus::Ok || Type != MsgType::ResultResp) {
      St = ClientStatus::Disconnected;
    } else {
      Trace::Scope S(T, "serve.decode", Root.id(), Key);
      ByteReader BR(Payload);
      if (!decodeCompileResult(BR, Res))
        St = ClientStatus::Rejected;
    }
  }
  ++L.Attempted;
  checkResponse(Q, St, Res, Err, L);
}

void tracedServe(const RunConfig &C, Fixture &F, const Series &Untraced,
                 int PerClient, Result &R) {
  Trace T(true);
  std::vector<ClientLog> Logs(Clients);
  auto P0 = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (int K = 0; K < Clients; ++K)
      Threads.emplace_back([&, K] {
        std::mt19937 Rng(C.Seed * 7919u + static_cast<unsigned>(K));
        for (int I = 0; I < PerClient; ++I)
          tracedRequest(F, draw(F, Rng), K * PerClient + I, T,
                        Logs[static_cast<size_t>(K)]);
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  R.Layer["trace.overhead_ms"] = msSince(P0) - Untraced.median();
  for (const ClientLog &L : Logs)
    absorb(L, R);

  for (const char *Step : {"connect", "send", "wait", "decode"})
    R.Layer[std::string("serve.") + Step + "_ms"] =
        T.totalMs(std::string("serve.") + Step);

  // Probes: parse, key, winner-text load and the in-process service time
  // of every distinct job, against the daemon's own cache directory.
  DiskCache Disk(F.Dir + "/cache");
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  Ctx.Disk = &Disk;
  for (const std::vector<Request> *Set : {&F.Warm, &F.Quick})
    for (const Request &Q : *Set) {
      const std::string Key = "probe:" + Q.Job.Name + (Q.Quick ? "/quick" : "");
      Module M;
      DiagnosticsEngine Diags;
      std::vector<KernelFunction *> Parsed;
      {
        Trace::Scope S(T, "parser.parse", -1, Key);
        Parser Ps(Q.Job.Source, Diags);
        Parsed = Ps.parseProgram(M);
      }
      if (Parsed.empty()) {
        R.fail(Q.Job.Name + ": parse failed");
        continue;
      }
      CompileOptions Opt;
      optionsFromJob(Q.Job, Ctx, Opt);
      std::vector<const KernelFunction *> Stages(Parsed.begin(), Parsed.end());
      uint64_t TextKey = 0;
      {
        Trace::Scope S(T, "cache.key", -1, Key);
        TextKey = Stages.size() > 1 ? programCacheKey(Stages, Opt)
                                    : compileCacheKey(*Stages[0], Opt);
      }
      if (!Q.Quick) {
        CachedCompile Entry;
        Trace::Scope S(T, "cache.disk_text_load", -1, Key);
        if (!Disk.loadText(TextKey, Entry))
          R.fail(Q.Job.Name + ": warm entry missing from the daemon's cache");
      } else {
        Trace::Scope S(T, "core.compile_variant", -1, Key);
        GpuCompiler GC(M, Diags);
        if (!GC.compileVariant(*Parsed[0], Opt, Q.Job.BlockN, Q.Job.ThreadM))
          R.fail(Q.Job.Name + ": fixed-factor compile failed");
      }
      Trace::Scope S(T, "serve.service", -1, Key);
      CompileResult Res = runCompileJob(Q.Job, Ctx);
      if (Res.Out != Q.Reference)
        R.fail(Q.Job.Name + ": in-process replay differs from the reference");
    }
  R.Layer["parser.parses"] = static_cast<double>(T.count("parser.parse"));
  R.Layer["parser.parse_ms"] = T.totalMs("parser.parse");
  R.Layer["cache.key_ms"] = T.totalMs("cache.key");
  R.Layer["cache.disk_text_load_ms"] = T.totalMs("cache.disk_text_load");
  R.Layer["core.compile_ms_sum"] = T.totalMs("core.compile_variant");
  R.Layer["serve.service_ms"] = T.totalMs("serve.service");

  const ServerStats SS = F.S->stats();
  R.Layer["serve.server_p50_ms"] = SS.LatencyP50Ms;
  R.Layer["serve.server_p99_ms"] = SS.LatencyP99Ms;
  R.Layer["serve.queue_peak"] = static_cast<double>(SS.QueuePeak);
  R.Layer["serve.busy_rejects"] = static_cast<double>(SS.RejectedBusy);
  R.Layer["serve.protocol_errors"] = static_cast<double>(SS.ProtocolErrors);
  R.Layer["serve.warm_share"] =
      SS.Served ? static_cast<double>(SS.WarmFastPath) / SS.Served : 0;
  R.Layer["cache.mem_hits"] = static_cast<double>(SS.MemHits);
  R.Layer["cache.mem_misses"] = static_cast<double>(SS.MemMisses);
  const double Lookups = static_cast<double>(SS.MemHits + SS.MemMisses);
  R.Layer["cache.mem_hit_rate"] = Lookups > 0 ? SS.MemHits / Lookups : 0;
  R.Layer["cache.disk_errors"] = static_cast<double>(
      SS.Disk.Corrupt + SS.Disk.Quarantined + SS.Disk.WriteErrors);
  R.Layer["exec.lanes"] = Workers;
  for (const auto &[Layer, Ms] : T.layerSelfMs())
    R.Layer[Layer + ".self_ms"] = Ms;
  T.writeChromeJson(C.OutDir + "/trace_serve_warm.json");
}

} // namespace

void perfbench::runServeWarm(const RunConfig &C, Result &R) {
  std::string Err;
  std::vector<Program> All, Progs;
  std::map<std::string, Winner> Expected;
  if (!loadPrograms(C.Root, All, Err) ||
      !loadExpected(C.ExpectedFile, Expected, Err)) {
    R.fail(Err);
    return;
  }
  for (Program &P : All)
    if (!C.Smoke || isSmokeProgram(P))
      Progs.push_back(std::move(P));
  R.meta("clients", std::to_string(Clients));
  R.meta("workers", std::to_string(Workers));
  R.meta("loop", "closed, one connection per request");

  Fixture F;
  int Rep = 0;
  const double SetupS = timedSetup(C.SetupReps, [&] {
    F.stop();
    setUp(C, Progs, Expected, Rep++, F, R);
  });
  if (!F.S || !F.S->running()) {
    F.stop();
    return;
  }
  if (C.Inject == "reference" && !F.Warm.empty())
    F.Warm.front().Reference += "// corrupted\n";

  const int PerClient = C.Smoke ? 50 : 400;
  Series WarmMs, QuickMs;
  std::map<std::string, Series> PerJob;
  long long Requests = 0;
  auto Pass = [&](int I) {
    auto P0 = Clock::now();
    std::vector<ClientLog> Logs(Clients);
    std::vector<std::thread> Threads;
    for (int K = 0; K < Clients; ++K)
      Threads.emplace_back(clientLoop, std::cref(F),
                           C.Seed * 7919u + static_cast<unsigned>(I) * 31u +
                               static_cast<unsigned>(K),
                           PerClient, std::ref(Logs[static_cast<size_t>(K)]));
    for (std::thread &Th : Threads)
      Th.join();
    const double Wall = msSince(P0);
    for (ClientLog &L : Logs) {
      absorb(L, R);
      Requests += L.Attempted;
      WarmMs.V.insert(WarmMs.V.end(), L.WarmMs.V.begin(), L.WarmMs.V.end());
      QuickMs.V.insert(QuickMs.V.end(), L.QuickMs.V.begin(),
                       L.QuickMs.V.end());
      for (auto &[Job, S] : L.PerJob)
        PerJob[Job].V.insert(PerJob[Job].V.end(), S.V.begin(), S.V.end());
    }
    return Wall;
  };

  if (C.Trace) {
    Series Untraced = timedPasses(0, 3, Pass);
    tracedServe(C, F, Untraced, PerClient, R);
    F.stop();
    return;
  }
  Series Walls = timedPasses(C.Seconds, 3, Pass);
  F.stop();

  const double TotalS = Walls.sum() / 1000.0;
  R.row("warm_p50_ms", "ms", WarmMs.median(), WarmMs.size());
  R.row("warm_p99_ms", "ms", WarmMs.quantile(0.99), WarmMs.size());
  R.row("quick_p50_ms", "ms", QuickMs.median(), QuickMs.size());
  R.row("quick_p99_ms", "ms", QuickMs.quantile(0.99), QuickMs.size());
  R.row("serve_rps", "1/s", TotalS > 0 ? Requests / TotalS : 0,
        static_cast<long long>(Walls.size()));

  R.metric("setup_s", "s", SetupS, C.SetupReps);
  R.metric("pass_s", "s", Walls.median() / 1000.0,
           static_cast<long long>(Walls.size()));
  Series JobMedians;
  for (const auto &[Job, S] : PerJob)
    JobMedians.add(S.median());
  R.metric("op_geomean_ms", "ms", JobMedians.geomean(),
           static_cast<long long>(Requests));
}
