//===-- tests/ServeTest.cpp - daemon protocol/soak/fault battery ----------===//
//
// The compile daemon must survive hostility on every layer:
//
//   - Protocol: truncated, bit-flipped, wrong-version, oversized and
//     garbage frames, and mid-message disconnects, each answered with a
//     clean error or a clean close — never a crash, never a hang.
//   - Concurrency: many client threads against one daemon must get
//     byte-identical output to a serial in-process compile of the same
//     job, and a warmed daemon must serve (almost) everything from the
//     winner-replay fast path.
//   - Faults: a daemon stopped mid-request surfaces as a fallback-
//     eligible failure; a restarted daemon rewarms from the disk tier
//     with no quarantine growth; the disk cache is opened exactly once
//     per daemon lifetime.
//   - Policy: per-request deadlines cancel the search gracefully, a full
//     admission queue answers Busy, and quick jobs are not starved
//     behind a convoy of searches.
//   - Warm replay: a warm daemon round trip is at least 5x faster than a
//     cold in-process search and returns the same bytes.
//
// The end-to-end section (compiled in when GPUCD_BIN/GPUCC_BIN are
// defined) drives the real binaries: cold+warm client pairs over one
// daemon, SIGKILL mid-request, the gpucc --connect fallback, and gpucc's
// batch, fallback, --time-report and --cache-stats paths agreeing with
// its single-file run.
//
//===----------------------------------------------------------------------===//

#include "baselines/NaiveKernels.h"
#include "cache/DiskCache.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "serve/Socket.h"
#include "sim/SimCache.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>

#if defined(GPUCD_BIN) && defined(GPUCC_BIN)
#include <csignal>
#include <cstdlib>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace gpuc;
using namespace gpuc::serve;
namespace fs = std::filesystem;

namespace {

/// RAII temp directory hosting the socket (sun_path is length-capped,
/// so the name stays short) and, when wanted, the cache tier.
struct TempDir {
  std::string Path = DiskCache::makeTempDir("gpuc-serve");
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string sock() const { return Path + "/d.sock"; }
  std::string cacheDir() const { return Path + "/cache"; }
};

CompileJob mmJob(long long N) {
  CompileJob J;
  J.Source = naiveSource(Algo::MM, N);
  J.Flags = jobDefaultFlags();
  return J;
}

/// Serial in-process reference (the soak battery's byte-identity oracle).
CompileResult localReference(const CompileJob &J) {
  SimCache Mem;
  ServiceContext Ctx;
  Ctx.Mem = &Mem;
  return runCompileJob(J, Ctx);
}

/// In-process daemon harness.
struct Harness {
  TempDir Dir;
  ServerOptions Opts;
  std::unique_ptr<Server> S;

  void start(bool WithDisk) {
    Opts.SocketPath = Dir.sock();
    if (WithDisk && Opts.CacheDir.empty())
      Opts.CacheDir = Dir.cacheDir();
    if (!WithDisk)
      Opts.CacheDir.clear();
    S = std::make_unique<Server>(Opts);
    std::string Err;
    ASSERT_TRUE(S->start(Err)) << Err;
  }
};

/// Polls \p Ready every 2 ms for up to 5 s. On timeout it adds a test
/// failure naming \p What and \returns false.
template <class Pred> bool waitFor(Pred Ready, const char *What) {
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!Ready()) {
    if (std::chrono::steady_clock::now() >= Deadline) {
      ADD_FAILURE() << "waited 5 s for " << What;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Encodes a complete CompileReq frame for \p J.
std::string compileFrame(const CompileJob &J) {
  ByteWriter W;
  encodeCompileJob(W, J);
  return encodeFrame(MsgType::CompileReq, W.buffer());
}

/// Sends raw bytes on a fresh connection and closes. \returns false if
/// the connect failed (the server is gone — the fuzz battery treats that
/// as a failure).
bool sendRawAndClose(const std::string &Sock, const std::string &Bytes) {
  std::string Err;
  Fd C = connectUnix(Sock, Err);
  if (!C.valid())
    return false;
  sendAll(C, Bytes);
  return true;
}

/// Deterministic byte source for the garbage-frame tests.
struct Lcg {
  uint32_t State = 0x20100615;
  uint8_t next() {
    State = State * 1664525u + 1013904223u;
    return static_cast<uint8_t>(State >> 24);
  }
};

//===----------------------------------------------------------------------===//
// Protocol unit tests
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, CompileJobRoundTrips) {
  CompileJob J;
  J.Name = "batch/file3.cu";
  J.Source = "__global__ void k(float a[64]) { a[0] = 1.0f; }";
  J.DeviceName = "gtx8800";
  J.Flags = jobDefaultFlags() | JF_Report | JF_Werror;
  J.BlockN = 4;
  J.ThreadM = 2;
  J.TimeoutMs = 1500;
  J.Dialect = 1;
  J.Interp = 1;

  ByteWriter W;
  encodeCompileJob(W, J);
  ByteReader R(W.buffer());
  CompileJob Out;
  ASSERT_TRUE(decodeCompileJob(R, Out));
  EXPECT_EQ(Out.Name, J.Name);
  EXPECT_EQ(Out.Source, J.Source);
  EXPECT_EQ(Out.DeviceName, J.DeviceName);
  EXPECT_EQ(Out.Flags, J.Flags);
  EXPECT_EQ(Out.BlockN, J.BlockN);
  EXPECT_EQ(Out.ThreadM, J.ThreadM);
  EXPECT_EQ(Out.TimeoutMs, J.TimeoutMs);
  EXPECT_EQ(Out.Dialect, J.Dialect);
  EXPECT_EQ(Out.Interp, J.Interp);
}

TEST(ServeProtocol, ResultAndErrorRoundTrip) {
  CompileResult R;
  R.Code = 2;
  R.Out = std::string("kernel text\n\0with embedded nul", 29);
  R.Err = "warning: something\n";
  R.CritPathMs = 12.75;
  R.WarmFastPath = 1;
  ByteWriter W;
  encodeCompileResult(W, R);
  ByteReader Rd(W.buffer());
  CompileResult Out;
  ASSERT_TRUE(decodeCompileResult(Rd, Out));
  EXPECT_EQ(Out.Code, R.Code);
  EXPECT_EQ(Out.Out, R.Out);
  EXPECT_EQ(Out.Err, R.Err);
  EXPECT_DOUBLE_EQ(Out.CritPathMs, R.CritPathMs);
  EXPECT_EQ(Out.WarmFastPath, R.WarmFastPath);

  ErrorBody E{ErrCode::Busy, "admission queue full"};
  ByteWriter EW;
  encodeError(EW, E);
  ByteReader ER(EW.buffer());
  ErrorBody EOut;
  ASSERT_TRUE(decodeError(ER, EOut));
  EXPECT_EQ(EOut.Code, E.Code);
  EXPECT_EQ(EOut.Message, E.Message);
}

TEST(ServeProtocol, FrameHeaderRejectsEachBadField) {
  std::string Frame = encodeFrame(MsgType::PingReq, std::string());
  ASSERT_EQ(Frame.size(), FrameHeaderBytes);

  FrameHeader H;
  ASSERT_TRUE(decodeFrameHeader(Frame.data(), Frame.size(), H));
  const char *Why = nullptr;
  EXPECT_TRUE(frameHeaderValid(H, &Why));

  FrameHeader Bad = H;
  Bad.Magic ^= 1;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "bad magic");

  Bad = H;
  Bad.Version = ProtocolVersion + 1;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "protocol version mismatch");

  Bad = H;
  Bad.Type = 0x7777;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "unknown message type");

  Bad = H;
  Bad.Length = MaxPayloadBytes + 1;
  EXPECT_FALSE(frameHeaderValid(Bad, &Why));
  EXPECT_STREQ(Why, "payload length over cap");

  // Short header: undecodable, never a read past the end.
  FrameHeader Short;
  EXPECT_FALSE(decodeFrameHeader(Frame.data(), FrameHeaderBytes - 1, Short));
}

TEST(ServeProtocol, DecodersRejectEveryTruncatedPayloadPrefix) {
  CompileJob J = mmJob(16);
  J.Name = "prefix-test";
  ByteWriter W;
  encodeCompileJob(W, J);
  const std::string Full = W.buffer();
  for (size_t L = 0; L < Full.size(); ++L) {
    // ByteReader aliases the buffer, so the prefix must outlive it.
    const std::string Prefix(Full, 0, L);
    ByteReader R(Prefix);
    CompileJob Out;
    EXPECT_FALSE(decodeCompileJob(R, Out)) << "prefix length " << L;
  }
  // Trailing garbage is also malformed: the encoding is self-delimiting.
  const std::string Longer = Full + '\x00';
  ByteReader Extra(Longer);
  CompileJob Out;
  EXPECT_FALSE(decodeCompileJob(Extra, Out));
}

TEST(ServeProtocol, ChecksumCatchesPayloadCorruption) {
  CompileJob J = mmJob(16);
  std::string Frame = compileFrame(J);
  FrameHeader H;
  ASSERT_TRUE(decodeFrameHeader(Frame.data(), Frame.size(), H));
  EXPECT_EQ(H.Checksum,
            framePayloadChecksum(Frame.substr(FrameHeaderBytes)));
  Frame[FrameHeaderBytes + 5] ^= 0x10; // flip one payload bit
  EXPECT_NE(H.Checksum,
            framePayloadChecksum(Frame.substr(FrameHeaderBytes)));
}

//===----------------------------------------------------------------------===//
// Protocol fuzz battery against a live server
//===----------------------------------------------------------------------===//

/// The server must answer a good request after arbitrary abuse; this is
/// the battery's liveness probe.
void expectServerAlive(const std::string &Sock) {
  std::string Err;
  EXPECT_EQ(pingDaemon(Sock, Err), ClientStatus::Ok) << Err;
  CompileResult R;
  EXPECT_EQ(compileViaDaemon(Sock, mmJob(16), R, Err), ClientStatus::Ok)
      << Err;
  EXPECT_EQ(R.Code, 0);
}

TEST(ServeFuzz, SurvivesEveryTruncatedFramePrefix) {
  Harness H;
  H.Opts.IoTimeoutMs = 500; // stalled peers reap fast
  H.start(/*WithDisk=*/false);

  const std::string Frame = compileFrame(mmJob(16));
  // Every header prefix, then a sweep of payload truncation points.
  std::vector<size_t> Cuts;
  for (size_t L = 0; L <= FrameHeaderBytes; ++L)
    Cuts.push_back(L);
  for (size_t L = FrameHeaderBytes + 1; L < Frame.size(); L += 7)
    Cuts.push_back(L);
  for (size_t L : Cuts)
    EXPECT_TRUE(sendRawAndClose(H.Dir.sock(), std::string(Frame, 0, L)))
        << "server gone after prefix length " << L;

  expectServerAlive(H.Dir.sock());
  EXPECT_EQ(H.S->stats().Served, 1u); // only the liveness probe compiled
}

TEST(ServeFuzz, AnswersBitFlippedFramesWithErrorOrClose) {
  Harness H;
  H.Opts.IoTimeoutMs = 500;
  H.start(/*WithDisk=*/false);

  const std::string Frame = compileFrame(mmJob(16));
  // Flip one bit in every header byte and a sample of payload bytes.
  std::vector<size_t> Positions;
  for (size_t I = 0; I < FrameHeaderBytes; ++I)
    Positions.push_back(I);
  for (size_t I = FrameHeaderBytes; I < Frame.size(); I += 11)
    Positions.push_back(I);

  for (size_t Pos : Positions) {
    for (uint8_t Bit : {0, 3, 7}) {
      std::string Mutant = Frame;
      Mutant[Pos] = static_cast<char>(Mutant[Pos] ^ (1u << Bit));
      std::string Err;
      Fd C = connectUnix(H.Dir.sock(), Err);
      ASSERT_TRUE(C.valid()) << "server gone before flip at " << Pos;
      sendAll(C, Mutant);
      // Close our write side so a corrupt length field cannot park the
      // server waiting for payload bytes that will never come.
      ::shutdown(C.get(), SHUT_WR);
      MsgType T;
      std::string Payload;
      IoStatus S = recvFrame(C, T, Payload, /*TimeoutMs=*/10000);
      if (S == IoStatus::Ok) {
        // A response means the server saw a parseable frame; anything it
        // says about a corrupted one must be an error or, when the flip
        // left the frame valid, a real result.
        EXPECT_TRUE(T == MsgType::ErrorResp || T == MsgType::ResultResp);
      } else {
        EXPECT_TRUE(S == IoStatus::Closed || S == IoStatus::Truncated)
            << ioStatusName(S) << " at pos " << Pos;
      }
    }
  }
  expectServerAlive(H.Dir.sock());
}

TEST(ServeFuzz, RejectsWrongVersionOversizedAndGarbage) {
  Harness H;
  H.Opts.IoTimeoutMs = 500;
  H.start(/*WithDisk=*/false);

  auto ExpectMalformedResp = [&](const std::string &Bytes,
                                 const char *What) {
    std::string Err;
    Fd C = connectUnix(H.Dir.sock(), Err);
    ASSERT_TRUE(C.valid()) << What;
    sendAll(C, Bytes);
    ::shutdown(C.get(), SHUT_WR);
    MsgType T;
    std::string Payload;
    IoStatus S = recvFrame(C, T, Payload, 10000);
    ASSERT_EQ(S, IoStatus::Ok) << What << ": " << ioStatusName(S);
    ASSERT_EQ(T, MsgType::ErrorResp) << What;
    ErrorBody E;
    ByteReader R(Payload);
    ASSERT_TRUE(decodeError(R, E)) << What;
    EXPECT_EQ(E.Code, ErrCode::Malformed) << What;
  };

  // Wrong protocol version.
  std::string Frame = compileFrame(mmJob(16));
  uint32_t BadVersion = ProtocolVersion + 9;
  std::memcpy(&Frame[4], &BadVersion, 4);
  ExpectMalformedResp(Frame, "wrong version");

  // Oversized declared length.
  Frame = compileFrame(mmJob(16));
  uint32_t Huge = MaxPayloadBytes + 1;
  std::memcpy(&Frame[12], &Huge, 4);
  ExpectMalformedResp(Frame, "oversized length");

  // Pure garbage (deterministic), a few lengths.
  Lcg Rng;
  for (size_t Len : {size_t(24), size_t(64), size_t(300)}) {
    std::string Garbage(Len, '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng.next());
    Garbage[0] = 'X'; // never accidentally the magic
    ExpectMalformedResp(Garbage, "garbage");
  }

  // A payload that checksums correctly but does not decode as a
  // CompileJob must be answered Malformed too, not crash the decoder.
  ExpectMalformedResp(encodeFrame(MsgType::CompileReq, "not a job"),
                      "undecodable payload");

  expectServerAlive(H.Dir.sock());
  EXPECT_GE(H.S->stats().ProtocolErrors, 6u);
}

TEST(ServeFuzz, MidMessageDisconnectLeavesServerServing) {
  Harness H;
  H.Opts.IoTimeoutMs = 500;
  H.start(/*WithDisk=*/false);

  const std::string Frame = compileFrame(mmJob(16));
  for (int Round = 0; Round < 8; ++Round) {
    std::string Err;
    Fd C = connectUnix(H.Dir.sock(), Err);
    ASSERT_TRUE(C.valid());
    // Header promises a payload; deliver half of it and vanish.
    sendAll(C, std::string(Frame, 0,
                           FrameHeaderBytes +
                               (Frame.size() - FrameHeaderBytes) / 2));
    C.reset(); // hard close mid-message
  }
  expectServerAlive(H.Dir.sock());
  // A session counts its truncated frame when its reader sees the close,
  // which nothing the client does waits for; give the readers a bounded
  // moment before checking.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (H.S->stats().ProtocolErrors < 8u &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(H.S->stats().ProtocolErrors, 8u);
}

//===----------------------------------------------------------------------===//
// Concurrency soak
//===----------------------------------------------------------------------===//

TEST(ServeSoak, ConcurrentClientsMatchSerialByteForByteAndRewarm) {
  // Distinct kernels so the cold wave really exercises the search.
  // Multiples of 16: smaller sizes make the search trivial and the
  // trivial winner is not stored (nothing to replay).
  const std::vector<long long> Sizes = {16, 32, 48, 64};
  std::vector<CompileJob> Jobs;
  std::vector<CompileResult> Refs;
  for (long long N : Sizes) {
    Jobs.push_back(mmJob(N));
    Refs.push_back(localReference(Jobs.back()));
    ASSERT_EQ(Refs.back().Code, 0) << "reference compile failed for " << N;
  }

  Harness H;
  H.Opts.Workers = 4;
  H.start(/*WithDisk=*/true);

  const int Threads = 6, PerThread = 8;
  auto RunWave = [&] {
    std::atomic<int> Failures{0};
    std::vector<std::thread> Ts;
    for (int T = 0; T < Threads; ++T) {
      Ts.emplace_back([&, T] {
        for (int I = 0; I < PerThread; ++I) {
          size_t Pick = static_cast<size_t>(T * PerThread + I) % Jobs.size();
          CompileResult R;
          std::string Err;
          ClientStatus S =
              compileViaDaemon(H.Dir.sock(), Jobs[Pick], R, Err);
          if (S != ClientStatus::Ok || R.Code != 0 ||
              R.Out != Refs[Pick].Out || R.Err != Refs[Pick].Err)
            Failures.fetch_add(1);
        }
      });
    }
    for (std::thread &T : Ts)
      T.join();
    return Failures.load();
  };

  // Cold wave: every response must still be byte-identical to the
  // serial in-process reference (concurrent searches of the same key
  // are benign races — both sides publish the same winner).
  EXPECT_EQ(RunWave(), 0);
  ServerStats Mid = H.S->stats();
  EXPECT_EQ(Mid.Served, static_cast<uint64_t>(Threads * PerThread));
  EXPECT_EQ(Mid.ProtocolErrors, 0u);

  // Warm wave: the daemon now holds every winner; at least 90% of the
  // new requests must ride the winner-replay fast path (in practice all
  // of them do).
  EXPECT_EQ(RunWave(), 0);
  ServerStats End = H.S->stats();
  const uint64_t NewServed = End.Served - Mid.Served;
  const uint64_t NewWarm = End.WarmFastPath - Mid.WarmFastPath;
  ASSERT_GT(NewServed, 0u);
  EXPECT_GE(static_cast<double>(NewWarm) / static_cast<double>(NewServed),
            0.9)
      << NewWarm << " warm of " << NewServed;
  EXPECT_EQ(End.ProtocolErrors, 0u);
  EXPECT_EQ(End.Timeouts, 0u);
  H.S->stop();
}

//===----------------------------------------------------------------------===//
// Faults: stop mid-request, restart/rewarm, one disk open, timeouts,
// admission, fairness
//===----------------------------------------------------------------------===//

TEST(ServeFault, StopMidRequestIsFallbackEligible) {
  Harness H;
  H.Opts.Workers = 1;
  H.start(/*WithDisk=*/false);

  CompileJob Big = mmJob(256); // seconds of search, cancel has a window
  ClientStatus Got = ClientStatus::Ok;
  CompileResult R;
  std::string Err;
  std::thread Client(
      [&] { Got = compileViaDaemon(H.Dir.sock(), Big, R, Err); });

  // Let the request reach the worker, then yank the daemon.
  if (waitFor([&] { return H.S->stats().Connections > 0; },
              "the client to connect"))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  H.S->stop();
  Client.join();

  if (Got == ClientStatus::Ok) {
    // The search won the race against stop() — legal, nothing to check.
    EXPECT_EQ(R.Code, 0);
    return;
  }
  // The driver contract: this failure class lets gpucc fall back
  // in-process; the fallback output equals the never-daemonized run.
  EXPECT_TRUE(fallbackEligible(Got)) << clientStatusName(Got);
  CompileJob Small = mmJob(16);
  CompileResult Fallback = localReference(Small);
  CompileResult Ref = localReference(Small);
  EXPECT_EQ(Fallback.Code, 0);
  EXPECT_EQ(Fallback.Out, Ref.Out);
}

TEST(ServeFault, RestartRewarmsFromDiskTier) {
  TempDir Dir;
  CompileJob J = mmJob(32);
  std::string ColdOut;

  {
    ServerOptions O;
    O.SocketPath = Dir.sock();
    O.CacheDir = Dir.cacheDir();
    Server A(O);
    std::string Err;
    ASSERT_TRUE(A.start(Err)) << Err;
    CompileResult R;
    ASSERT_EQ(compileViaDaemon(Dir.sock(), J, R, Err), ClientStatus::Ok);
    ASSERT_EQ(R.Code, 0);
    EXPECT_EQ(R.WarmFastPath, 0u); // genuinely cold
    ColdOut = R.Out;
    A.stop();
  }

  // New daemon, same cache dir: the first request must already be warm,
  // byte-identical, and the disk tier must be pristine (no quarantine
  // growth across the restart).
  {
    ServerOptions O;
    O.SocketPath = Dir.sock();
    O.CacheDir = Dir.cacheDir();
    Server B(O);
    std::string Err;
    ASSERT_TRUE(B.start(Err)) << Err;
    CompileResult R;
    ASSERT_EQ(compileViaDaemon(Dir.sock(), J, R, Err), ClientStatus::Ok);
    EXPECT_EQ(R.Code, 0);
    EXPECT_EQ(R.WarmFastPath, 1u);
    EXPECT_EQ(R.Out, ColdOut);
    ServerStats S = B.stats();
    EXPECT_EQ(S.Disk.Corrupt, 0u);
    EXPECT_EQ(S.Disk.Quarantined, 0u);
    B.stop();
  }
}

TEST(ServeFault, DiskCacheOpensExactlyOncePerDaemonLifetime) {
  const uint64_t Before = DiskCache::openCount();
  Harness H;
  H.start(/*WithDisk=*/true);
  std::string Err;
  CompileResult R;
  // Several requests over several connections: still one open.
  for (long long N : {16, 16, 32}) {
    ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(N), R, Err),
              ClientStatus::Ok)
        << Err;
    EXPECT_EQ(R.Code, 0);
  }
  EXPECT_EQ(H.S->stats().DiskOpens, 1u);
  H.S->stop();
  EXPECT_EQ(DiskCache::openCount() - Before, 1u);
}

TEST(ServeFault, DeadlineCancelsSearchGracefully) {
  Harness H;
  H.Opts.Workers = 1;
  H.start(/*WithDisk=*/false);

  CompileJob Big = mmJob(256);
  Big.TimeoutMs = 50; // the search needs seconds
  CompileResult R;
  std::string Err;
  ClientStatus S = compileViaDaemon(H.Dir.sock(), Big, R, Err);
  EXPECT_EQ(S, ClientStatus::Timeout) << clientStatusName(S);
  EXPECT_FALSE(fallbackEligible(S)); // deadline failures are hard
  EXPECT_EQ(H.S->stats().Timeouts, 1u);

  // Graceful: the worker backed out and the daemon still serves.
  expectServerAlive(H.Dir.sock());
  H.S->stop();
}

TEST(ServeFault, FullAdmissionQueueAnswersBusy) {
  Harness H;
  H.Opts.Workers = 1;
  H.Opts.QueueMax = 1;
  H.start(/*WithDisk=*/false);

  auto Submit = [&](CompileJob J, ClientStatus *SOut) {
    CompileResult R;
    std::string Err;
    *SOut = compileViaDaemon(H.Dir.sock(), std::move(J), R, Err);
  };

  // J1 occupies the only worker...
  ClientStatus S1, S2, S3 = ClientStatus::Ok;
  std::thread T1(Submit, mmJob(256), &S1), T2;
  auto DepthIs = [&](uint64_t D) { return H.S->stats().QueueDepth == D; };
  if (waitFor([&] { return H.S->stats().QueuePeak >= 1 && DepthIs(0); },
              "the first job to reach the worker")) {
    // ...J2 fills the one queue slot...
    T2 = std::thread(Submit, mmJob(224), &S2);
    if (waitFor([&] { return DepthIs(1); },
                "the second job to queue behind the first")) {
      // ...so J3 must bounce immediately instead of building a backlog.
      Submit(mmJob(16), &S3);
      EXPECT_EQ(S3, ClientStatus::Busy) << clientStatusName(S3);
      EXPECT_TRUE(fallbackEligible(S3));
      EXPECT_EQ(H.S->stats().RejectedBusy, 1u);
    }
  }

  H.S->stop(); // don't wait out the big searches
  T1.join();
  if (T2.joinable())
    T2.join();
}

TEST(ServeFair, QuickJobsAreNotStarvedBehindSearches) {
  Harness H;
  H.Opts.Workers = 1;
  H.Opts.QueueMax = 16;
  H.start(/*WithDisk=*/false);

  std::atomic<int> FinishSeq{0};
  const int Searches = 5;
  std::vector<int> SearchDone(Searches, 0);
  int QuickDone = 0;

  std::vector<std::thread> Ts;
  for (int I = 0; I < Searches; ++I) {
    // The first search is large enough to hold the one worker while the
    // rest of the convoy queues behind it.
    const long long N = I == 0 ? 256 : 32 + 16 * I;
    Ts.emplace_back([&, I, N] {
      CompileResult R;
      std::string Err;
      compileViaDaemon(H.Dir.sock(), mmJob(N), R, Err);
      SearchDone[I] = ++FinishSeq;
    });
    // Stagger so the first search is running before the convoy queues.
    if (I == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Send the quick job once the convoy is queued, however fast a search
  // runs: the dequeue alternates classes, so with two or more searches
  // waiting it leaves before the last of them.
  const uint64_t Convoy = Searches - 1;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (H.S->stats().QueueDepth < Convoy &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // A fixed-factor compile rides the Quick class.
  CompileJob Quick = mmJob(64);
  Quick.BlockN = 4;
  Quick.ThreadM = 2;
  std::thread QT([&] {
    CompileResult R;
    std::string Err;
    ClientStatus S = compileViaDaemon(H.Dir.sock(), Quick, R, Err);
    EXPECT_EQ(S, ClientStatus::Ok) << Err;
    EXPECT_EQ(R.Code, 0);
    QuickDone = ++FinishSeq;
  });
  QT.join();
  for (std::thread &T : Ts)
    T.join();

  // Round-robin dequeue: the quick job overtakes the queued searches —
  // it must not finish last behind the whole convoy.
  int LastSearch = 0;
  for (int D : SearchDone)
    LastSearch = std::max(LastSearch, D);
  EXPECT_LT(QuickDone, LastSearch)
      << "quick job was starved behind the search convoy";
  EXPECT_GE(H.S->stats().ServedQuick, 1u);
  H.S->stop();
}

TEST(ServeWarm, DaemonRoundTripIsFiveTimesFasterThanColdSearch) {
  // The case for the daemon: the design-space search is paid once. A cold
  // in-process compile of mm-256 pays it; a warm daemon replays the
  // stored winner over one socket round trip (measured >100x faster in
  // Release), byte-identical to the cold compile.
  const CompileJob J = mmJob(256);
  WallTimer ColdT;
  const CompileResult Cold = localReference(J);
  const double ColdMs = ColdT.elapsedMs();
  ASSERT_EQ(Cold.Code, 0);

  Harness H;
  H.Opts.Workers = 2;
  H.start(/*WithDisk=*/true);
  CompileResult R;
  std::string Err;
  ASSERT_EQ(compileViaDaemon(H.Dir.sock(), J, R, Err), ClientStatus::Ok)
      << Err;
  EXPECT_EQ(R.Out, Cold.Out);

  const int Trips = 8;
  std::vector<double> Rtts;
  uint64_t FastPath = 0;
  for (int I = 0; I < Trips; ++I) {
    WallTimer T;
    ASSERT_EQ(compileViaDaemon(H.Dir.sock(), J, R, Err), ClientStatus::Ok)
        << Err;
    Rtts.push_back(T.elapsedMs());
    EXPECT_EQ(R.Code, 0);
    EXPECT_EQ(R.Out, Cold.Out);
    FastPath += R.WarmFastPath;
  }
  std::sort(Rtts.begin(), Rtts.end());
  const double WarmMs = Rtts[Trips / 2];
  EXPECT_GE(FastPath, 7u);
  EXPECT_LE(5.0 * WarmMs, ColdMs)
      << "warm median " << WarmMs << " ms, cold search " << ColdMs << " ms";
  H.S->stop();
}

TEST(ServeStats, JsonSnapshotCarriesTheContract) {
  Harness H;
  H.start(/*WithDisk=*/true);
  std::string Err;
  CompileResult R;
  ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(16), R, Err),
            ClientStatus::Ok);
  ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(16), R, Err),
            ClientStatus::Ok);
  EXPECT_EQ(R.WarmFastPath, 1u);

  std::string Json;
  ASSERT_EQ(fetchDaemonStats(H.Dir.sock(), Json, Err), ClientStatus::Ok)
      << Err;
  for (const char *Key :
       {"\"served\"", "\"warm_fast_path\"", "\"queue_depth\"",
        "\"queue_peak\"", "\"disk_opens\"", "\"mem_hit_rate\"",
        "\"disk_hit_rate\"", "\"max_crit_path_ms\"", "\"latency_ms\"",
        "\"p50\"", "\"p99\"", "\"rejected_busy\"", "\"timeouts\"",
        "\"protocol_errors\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
  // Balanced braces — cheap structural sanity for the CI artifact.
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  ServerStats S = H.S->stats();
  EXPECT_EQ(S.Served, 2u);
  EXPECT_EQ(S.WarmFastPath, 1u);
  H.S->stop();
}

TEST(ServeStats, LatencyWindowForgetsTheColdSearches) {
  // The latency percentiles cover the most recent LatencyWindow requests,
  // so a full window of warm replays pushes the cold searches out of it;
  // the maximum covers the daemon's lifetime. Sixteen cold searches are
  // more than 1% of all the requests, so a p99 over every request served
  // would be one of them, and slower than any warm round trip. Each warm
  // request's client round trip contains the server's timer for it, so a
  // window of only warm requests has a p99 no larger than the same
  // percentile of the round trips, however loaded the host.
  Harness H;
  H.start(/*WithDisk=*/true);
  CompileResult R;
  std::string Err;
  const long long ColdSearches = 16, FirstN = 96;
  for (long long I = 0; I < ColdSearches; ++I) {
    ASSERT_EQ(compileViaDaemon(H.Dir.sock(), mmJob(FirstN + 16 * I), R, Err),
              ClientStatus::Ok)
        << Err;
    ASSERT_EQ(R.WarmFastPath, 0u);
  }
  const double ColdMaxMs = H.S->stats().LatencyMaxMs;
  const CompileJob Warm = mmJob(FirstN);
  std::vector<double> RoundTripsMs;
  for (size_t I = 0; I < Server::LatencyWindow; ++I) {
    WallTimer T;
    ASSERT_EQ(compileViaDaemon(H.Dir.sock(), Warm, R, Err), ClientStatus::Ok)
        << Err;
    RoundTripsMs.push_back(T.elapsedMs());
    ASSERT_EQ(R.WarmFastPath, 1u);
  }
  // The server's percentile: element floor(0.99 n) of the sorted window.
  std::sort(RoundTripsMs.begin(), RoundTripsMs.end());
  const double RoundTripP99Ms = RoundTripsMs[static_cast<size_t>(
      0.99 * static_cast<double>(RoundTripsMs.size()))];
  ServerStats S = H.S->stats();
  EXPECT_EQ(S.Served, Server::LatencyWindow + ColdSearches);
  EXPECT_LE(S.LatencyP99Ms, RoundTripP99Ms)
      << "a request slower than the warm round trips is still in the window";
  EXPECT_GE(S.LatencyMaxMs, ColdMaxMs);
  H.S->stop();
}

//===----------------------------------------------------------------------===//
// End-to-end: the real binaries
//===----------------------------------------------------------------------===//

#if defined(GPUCD_BIN) && defined(GPUCC_BIN)

pid_t spawnDaemon(const std::vector<std::string> &ExtraArgs) {
  std::vector<std::string> Args = {GPUCD_BIN};
  Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
  pid_t P = ::fork();
  if (P == 0) {
    std::vector<char *> Argv;
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    _exit(127);
  }
  return P;
}

bool waitForDaemon(const std::string &Sock, int BudgetMs = 10000) {
  for (int T = 0; T < BudgetMs; T += 50) {
    std::string Err;
    if (pingDaemon(Sock, Err) == ClientStatus::Ok)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

int runShell(const std::string &Cmd) {
  int RC = std::system(Cmd.c_str());
  return WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

TEST(ServeEndToEnd, ColdAndWarmClientsShareOneDaemonCache) {
  TempDir Dir;
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 64));

  const std::string StatsFile = Dir.Path + "/stats-final.json";
  pid_t D = spawnDaemon({"--socket=" + Dir.sock(),
                         "--cache-dir=" + Dir.cacheDir(), "--workers=2",
                         "--stats-file=" + StatsFile});
  ASSERT_GT(D, 0);
  ASSERT_TRUE(waitForDaemon(Dir.sock()));

  const std::string Base = std::string(GPUCC_BIN) + " --connect=" +
                           Dir.sock() + " " + Kernel;
  ASSERT_EQ(runShell(Base + " > " + Dir.Path + "/cold.out 2> " + Dir.Path +
                     "/cold.err"),
            0);
  ASSERT_EQ(runShell(Base + " > " + Dir.Path + "/warm.out 2> " + Dir.Path +
                     "/warm.err"),
            0);
  EXPECT_EQ(slurp(Dir.Path + "/cold.out"), slurp(Dir.Path + "/warm.out"));
  EXPECT_NE(slurp(Dir.Path + "/cold.out").find("__global__"),
            std::string::npos);
  // Neither run fell back: stderr is clean of the fallback note.
  EXPECT_EQ(slurp(Dir.Path + "/cold.err").find("compiling in-process"),
            std::string::npos);
  EXPECT_EQ(slurp(Dir.Path + "/warm.err").find("compiling in-process"),
            std::string::npos);
  // The daemon runs the in-process flow, so its reply is a plain local
  // compile's output byte for byte.
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " --no-disk-cache " + Kernel +
                     " > " + Dir.Path + "/local.out"),
            0);
  EXPECT_EQ(slurp(Dir.Path + "/cold.out"), slurp(Dir.Path + "/local.out"));

  std::string Json, Err;
  ASSERT_EQ(fetchDaemonStats(Dir.sock(), Json, Err), ClientStatus::Ok);
  EXPECT_NE(Json.find("\"served\": 2,"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"warm_fast_path\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"disk_opens\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"protocol_errors\": 0,"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"disk_quarantined\": 0,"), std::string::npos)
      << Json;

  ASSERT_EQ(requestDaemonShutdown(Dir.sock(), Err), ClientStatus::Ok);
  int Status = 0;
  ASSERT_EQ(::waitpid(D, &Status, 0), D);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  // --stats-file holds the snapshot taken at shutdown.
  EXPECT_NE(slurp(StatsFile).find("\"served\": 2,"), std::string::npos)
      << slurp(StatsFile);
}

TEST(ServeEndToEnd, SigkillMidRequestThenClientFallsBack) {
  TempDir Dir;
  pid_t D = spawnDaemon({"--socket=" + Dir.sock(), "--workers=1"});
  ASSERT_GT(D, 0);
  ASSERT_TRUE(waitForDaemon(Dir.sock()));

  // Park a long search on the daemon, then SIGKILL it mid-request. The
  // pause only lets the request reach the worker; it must stay well short
  // of the search, or the reply can arrive before the kill.
  std::string Err;
  Fd C = connectUnix(Dir.sock(), Err);
  ASSERT_TRUE(C.valid()) << Err;
  ASSERT_TRUE(sendAll(C, compileFrame(mmJob(256))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(D, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(D, &Status, 0), D);
  ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL);

  // The in-flight request surfaces as a dead connection, not a hang.
  MsgType T;
  std::string Payload;
  IoStatus S = recvFrame(C, T, Payload, /*TimeoutMs=*/10000);
  EXPECT_NE(S, IoStatus::Ok) << "response from a SIGKILLed daemon?";
  EXPECT_NE(S, IoStatus::Timeout) << "EOF should arrive immediately";

  // A fresh client against the dead socket falls back in-process with a
  // diagnostic and still compiles successfully.
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 16));
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " --connect=" + Dir.sock() +
                     " " + Kernel + " > " + Dir.Path + "/fb.out 2> " +
                     Dir.Path + "/fb.err"),
            0);
  EXPECT_NE(slurp(Dir.Path + "/fb.err").find("compiling in-process"),
            std::string::npos);
  EXPECT_NE(slurp(Dir.Path + "/fb.out").find("__global__"),
            std::string::npos);

  // --daemon (hard mode) must refuse instead of falling back.
  EXPECT_NE(runShell(std::string(GPUCC_BIN) + " --daemon=" + Dir.sock() +
                     " " + Kernel + " > /dev/null 2> " + Dir.Path +
                     "/hard.err"),
            0);
  EXPECT_NE(slurp(Dir.Path + "/hard.err").find("gpucc: error: daemon"),
            std::string::npos);
}

TEST(ServeEndToEnd, BatchRidesTheDaemonSharedCache) {
  TempDir Dir;
  std::vector<std::string> Files;
  for (long long N : {16, 32, 48}) {
    std::string F = Dir.Path + "/k" + std::to_string(N) + ".cu";
    writeFile(F, naiveSource(Algo::MM, N));
    Files.push_back(F);
  }
  std::string FileArgs;
  for (const std::string &F : Files)
    FileArgs += " " + F;

  pid_t D = spawnDaemon({"--socket=" + Dir.sock(),
                         "--cache-dir=" + Dir.cacheDir(), "--workers=2"});
  ASSERT_GT(D, 0);
  ASSERT_TRUE(waitForDaemon(Dir.sock()));

  // Daemon-side batch, twice (cold then warm), vs. a local reference
  // batch on a third cache dir: all three byte-identical.
  const std::string Via = std::string(GPUCC_BIN) + " --batch --connect=" +
                          Dir.sock() + FileArgs;
  ASSERT_EQ(runShell(Via + " > " + Dir.Path + "/b1.out 2>/dev/null"), 0);
  ASSERT_EQ(runShell(Via + " > " + Dir.Path + "/b2.out 2>/dev/null"), 0);
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " --batch --cache-dir=" +
                     Dir.Path + "/localcache" + FileArgs + " > " +
                     Dir.Path + "/bl.out 2>/dev/null"),
            0);
  const std::string B1 = slurp(Dir.Path + "/b1.out");
  EXPECT_EQ(B1, slurp(Dir.Path + "/b2.out"));
  EXPECT_EQ(B1, slurp(Dir.Path + "/bl.out"));

  // The whole batch hit the daemon: one disk open, warm replays ≥ the
  // file count on the second pass.
  std::string Json, Err;
  ASSERT_EQ(fetchDaemonStats(Dir.sock(), Json, Err), ClientStatus::Ok);
  EXPECT_NE(Json.find("\"disk_opens\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"served\": 6"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"warm_fast_path\": 3"), std::string::npos) << Json;

  ASSERT_EQ(requestDaemonShutdown(Dir.sock(), Err), ClientStatus::Ok);
  int Status = 0;
  ASSERT_EQ(::waitpid(D, &Status, 0), D);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
}

// The gpucc paths share one compile flow (serve::runCompileJob), so a
// batch lane, a single-file run and a --connect fallback behave alike.

/// Runs gpucc (no disk cache, so $GPUC_CACHE_DIR cannot warm it) with
/// \p Args, capturing its streams as \p Name.out and \p Name.err under
/// \p Dir. \returns the exit code.
int runGpucc(const TempDir &Dir, const std::string &Args,
             const std::string &Name) {
  return runShell(std::string(GPUCC_BIN) + " --no-disk-cache " + Args +
                  " > " + Dir.Path + "/" + Name + ".out 2> " + Dir.Path +
                  "/" + Name + ".err");
}

/// The integer after "\p Field=" in \p Text, or -1.
int fieldValue(const std::string &Text, const std::string &Field) {
  size_t At = Text.find(Field + "=");
  return At == std::string::npos
             ? -1
             : std::atoi(Text.c_str() + At + Field.size() + 1);
}

TEST(ServeEndToEnd, BatchLaneSanitizesLikeSingleFile) {
  TempDir Dir;
  const std::string Tp = Dir.Path + "/tp.cu", Mv = Dir.Path + "/mv.cu";
  writeFile(Tp, naiveSource(Algo::TP, 64));
  writeFile(Mv, naiveSource(Algo::MV, 64));
  ASSERT_EQ(runGpucc(Dir, "--lint --sanitize " + Mv, "single"), 0);
  ASSERT_EQ(runGpucc(Dir, "--batch --lint --sanitize " + Tp + " " + Mv,
                     "batch"),
            0);
  const std::string Single = slurp(Dir.Path + "/single.err");
  EXPECT_NE(Single.find("sanitizer: "), std::string::npos) << Single;
  // mv.cu is the last input, so its body runs to the end of stderr.
  const std::string Batch = slurp(Dir.Path + "/batch.err");
  const std::string Banner = "== " + Mv + " ==\n";
  const size_t At = Batch.find(Banner);
  ASSERT_NE(At, std::string::npos) << Batch;
  EXPECT_EQ(Batch.substr(At + Banner.size()), Single);
}

TEST(ServeEndToEnd, BatchRefusesOpenclPipelineLikeSingleFile) {
  TempDir Dir;
  const std::string P = Dir.Path + "/pipe.cu";
  writeFile(P, "#pragma gpuc pipeline(mv -> addv)\n"
               "#pragma gpuc output(y)\n"
               "#pragma gpuc bind(w=64)\n"
               "__global__ void mv(float a[64][64], float x[64], "
               "float y[64], int w) {\n"
               "  float sum = 0;\n"
               "  for (int i = 0; i < w; i++) {\n"
               "    sum += a[idx][i] * x[i];\n"
               "  }\n"
               "  y[idx] = sum;\n"
               "}\n"
               "#pragma gpuc output(z)\n"
               "__global__ void addv(float y[64], float b[64], "
               "float z[64]) {\n"
               "  z[idx] = y[idx] + b[idx];\n"
               "}\n");
  ASSERT_EQ(runGpucc(Dir, "--opencl " + P, "single"), 1);
  ASSERT_EQ(runGpucc(Dir, "--batch --opencl " + P, "batch"), 1);
  const std::string Single = slurp(Dir.Path + "/single.err");
  EXPECT_NE(Single.find("not supported for multi-kernel pipelines"),
            std::string::npos)
      << Single;
  EXPECT_EQ(slurp(Dir.Path + "/batch.err"), "== " + P + " ==\n" + Single);
  EXPECT_EQ(slurp(Dir.Path + "/batch.out"), "// ==== " + P + " ====\n");
}

TEST(ServeEndToEnd, ConnectFallbackSearchesOnEveryLane) {
  TempDir Dir; // no daemon listens on Dir.sock()
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 64));
  ASSERT_EQ(runGpucc(Dir, "--search-stats " + Kernel, "local"), 0);
  ASSERT_EQ(runGpucc(Dir,
                     "--connect=" + Dir.sock() + " --search-stats " + Kernel,
                     "fallback"),
            0);
  const std::string Local = slurp(Dir.Path + "/local.err");
  const std::string Fallback = slurp(Dir.Path + "/fallback.err");
  EXPECT_NE(Fallback.find("compiling in-process"), std::string::npos);
  EXPECT_GE(fieldValue(Local, "jobs"), 1) << Local;
  EXPECT_EQ(fieldValue(Fallback, "jobs"), fieldValue(Local, "jobs"))
      << Fallback;
}

TEST(ServeEndToEnd, TimeReportRowPerLayoutPoint) {
  TempDir Dir;
  const std::string Kernel = Dir.Path + "/mm.cu";
  writeFile(Kernel, naiveSource(Algo::MM, 128));
  ASSERT_EQ(runGpucc(Dir, "--time-report --search-stats " + Kernel, "t"), 0);
  const std::string Err = slurp(Dir.Path + "/t.err");
  // The layout family must have been searched for rows to collide.
  ASSERT_NE(Err.find("affine layout: "), std::string::npos) << Err;
  const int Candidates = fieldValue(Err, "candidates");
  ASSERT_GT(Candidates, 0) << Err;
  const std::string Title = "=== design-space variants (per-lane time) ===\n";
  size_t At = Err.find(Title);
  ASSERT_NE(At, std::string::npos) << Err;
  std::istringstream Table(Err.substr(At + Title.size()));
  int Rows = 0;
  for (std::string Line;
       std::getline(Table, Line) && Line.find(" total") == std::string::npos;)
    ++Rows;
  EXPECT_EQ(Rows, 2 * Candidates) << Err;
}

TEST(ServeEndToEnd, CacheStatsJsonEscapesTheDirectory) {
  TempDir Dir;
  const std::string Kernel = Dir.Path + "/mv.cu";
  writeFile(Kernel, naiveSource(Algo::MV, 64));
  ASSERT_EQ(runShell(std::string(GPUCC_BIN) + " '--cache-dir=" + Dir.Path +
                     "/q\"dir' --cache-stats=" + Dir.Path + "/s.json " +
                     Kernel + " > /dev/null 2>&1"),
            0);
  const std::string Json = slurp(Dir.Path + "/s.json");
  EXPECT_NE(Json.find("{\"dir\": \"" + Dir.Path + "/q\\\"dir\", "),
            std::string::npos)
      << Json;
}

#endif // GPUCD_BIN && GPUCC_BIN

} // namespace
