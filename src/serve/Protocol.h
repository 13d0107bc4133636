//===-- serve/Protocol.h - gpucd wire protocol ------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response framing the compile daemon (gpucd) speaks over
/// its Unix-domain socket. A connection is a session: the client sends
/// frames, the server answers each with exactly one response frame, in
/// order, until either side closes.
///
/// Frame layout (fixed-width little-endian, 24-byte header + payload):
///
///   u32 magic      "GPCD"
///   u32 version    ProtocolVersion — a mismatch is a clean error, never
///                  an attempt to decode a foreign payload
///   u32 type       MsgType
///   u32 length     payload byte count, capped at MaxPayloadBytes
///   u64 checksum   FNV-1a over the payload (bit-flip detection)
///   ...payload...
///
/// Payloads are encoded with cache/Serialize's ByteWriter and decoded
/// with its bounds-checked, sticky-fail ByteReader — a truncated or
/// garbled payload can never crash the decoder or read out of bounds;
/// the server answers Malformed and the connection survives (or is
/// closed), which the protocol fuzz battery in tests/ServeTest.cpp
/// enforces frame-prefix by frame-prefix.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SERVE_PROTOCOL_H
#define GPUC_SERVE_PROTOCOL_H

#include "cache/Serialize.h"

#include <cstdint>
#include <string>

namespace gpuc {
namespace serve {

/// Bump on any change to the frame header or a payload encoding; peers
/// with a different version exchange clean errors instead of garbage.
constexpr uint32_t ProtocolVersion = 1;

constexpr uint32_t FrameMagic = 0x44435047; // "GPCD", little-endian
constexpr size_t FrameHeaderBytes = 24;

/// Upper bound on a frame payload; a header declaring more is malformed
/// (it is almost certainly a corrupt length field, and honoring it would
/// let one bad frame pin down server memory).
constexpr uint32_t MaxPayloadBytes = 64u << 20;

enum class MsgType : uint32_t {
  // Requests.
  CompileReq = 1,
  StatsReq = 2,
  PingReq = 3,
  ShutdownReq = 4,
  // Responses.
  ResultResp = 0x81,
  StatsResp = 0x82,
  PongResp = 0x83,
  OkResp = 0x84,
  ErrorResp = 0x85,
};

/// True for the types a client may send.
bool isRequestType(uint32_t T);

/// Categories of ErrorResp. The thin client falls back to in-process
/// compilation on Busy/ShuttingDown/Unsupported (the daemon declined the
/// work); Timeout is a hard per-request failure (falling back would only
/// exceed the deadline further).
enum class ErrCode : uint32_t {
  Malformed = 1,    ///< undecodable frame or payload
  Busy = 2,         ///< admission queue full
  Timeout = 3,      ///< request deadline passed; search cancelled
  ShuttingDown = 4, ///< daemon is draining
  Unsupported = 5,  ///< request names an unknown device/mode
  Internal = 6,
};

/// One compile request: the source, a display name (batch headers), and
/// the CompileOptions subset a thin client can express. Everything the
/// daemon cannot represent (custom DeviceSpecs, --validate's simulation
/// runs, wall-clock --time-report) stays client-side — gpucc compiles
/// those in-process.
struct CompileJob {
  std::string Name;     ///< display label; empty for single-file runs
  std::string Source;
  std::string DeviceName = "gtx280"; ///< gtx280 | gtx8800 | hd5870
  uint32_t Flags = 0;   ///< JobFlags bitmask; jobDefaultFlags() mirrors
                        ///< CompileOptions' defaults
  int32_t BlockN = 0;   ///< fixed merge factors; 0 = search
  int32_t ThreadM = 0;
  uint32_t TimeoutMs = 0; ///< per-request deadline; 0 = server default
  uint8_t Dialect = 0;  ///< PrintDialect: 0 = CUDA, 1 = OpenCL
  uint8_t Interp = 0;   ///< 0 = vector engine, 1 = scalar oracle
};

enum JobFlags : uint32_t {
  JF_Vectorize = 1u << 0,
  JF_Coalesce = 1u << 1,
  JF_Merge = 1u << 2,
  JF_Prefetch = 1u << 3,
  JF_PartitionElim = 1u << 4,
  // Bits 5 and 7 are retired: never reuse them or renumber the bits after
  // them. Old clients may still set them; the daemon ignores bits it does
  // not read.
  JF_Fold = 1u << 6,
  JF_Exhaustive = 1u << 8,
  JF_Sanitize = 1u << 9,
  JF_Lint = 1u << 10,
  JF_LintStrict = 1u << 11,
  JF_Werror = 1u << 12,
  JF_Report = 1u << 13,
  JF_SearchStats = 1u << 14,
  JF_PrintNaive = 1u << 15,
};

/// The pipeline toggles CompileOptions defaults to on.
uint32_t jobDefaultFlags();

/// One compile response: the bytes gpucc would have written to stdout and
/// stderr plus its exit code — the daemon path is byte-identical to the
/// in-process path by construction (both run serve/Service.h).
struct CompileResult {
  int32_t Code = 0;
  std::string Out;
  std::string Err;
  /// Critical-path estimate of the request's search (stats aggregation).
  double CritPathMs = 0;
  /// Served by the warm winner-replay fast path (no search ran).
  uint8_t WarmFastPath = 0;
};

/// Error response body.
struct ErrorBody {
  ErrCode Code = ErrCode::Internal;
  std::string Message;
};

/// Parsed frame header fields.
struct FrameHeader {
  uint32_t Magic = 0;
  uint32_t Version = 0;
  uint32_t Type = 0;
  uint32_t Length = 0;
  uint64_t Checksum = 0;
};

/// FNV-1a over \p Payload, the frame checksum.
uint64_t framePayloadChecksum(const std::string &Payload);

/// Serializes a complete frame (header + payload).
std::string encodeFrame(MsgType Type, const std::string &Payload);

/// Decodes the 24 header bytes at \p Data. \returns false on short input.
bool decodeFrameHeader(const void *Data, size_t Len, FrameHeader &Out);

/// Header sanity: magic, version, known type, length cap. On failure
/// \p Why names the first violated field (stable strings for tests).
bool frameHeaderValid(const FrameHeader &H, const char **Why = nullptr);

// Payload encodings. Decoders return false (never crash) on malformed
// input, including trailing garbage — the formats are self-delimiting.
void encodeCompileJob(ByteWriter &W, const CompileJob &J);
bool decodeCompileJob(ByteReader &R, CompileJob &Out);

void encodeCompileResult(ByteWriter &W, const CompileResult &R);
bool decodeCompileResult(ByteReader &R, CompileResult &Out);

void encodeError(ByteWriter &W, const ErrorBody &E);
bool decodeError(ByteReader &R, ErrorBody &Out);

} // namespace serve
} // namespace gpuc

#endif // GPUC_SERVE_PROTOCOL_H
