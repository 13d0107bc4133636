//===-- serve/Protocol.cpp - gpucd wire protocol --------------------------===//

#include "serve/Protocol.h"

#include "ast/Hash.h"

using namespace gpuc;
using namespace gpuc::serve;

uint32_t gpuc::serve::jobDefaultFlags() {
  return JF_Vectorize | JF_Coalesce | JF_Merge | JF_Prefetch |
         JF_PartitionElim | JF_Fold;
}

bool gpuc::serve::isRequestType(uint32_t T) {
  switch (static_cast<MsgType>(T)) {
  case MsgType::CompileReq:
  case MsgType::StatsReq:
  case MsgType::PingReq:
  case MsgType::ShutdownReq:
    return true;
  default:
    return false;
  }
}

uint64_t gpuc::serve::framePayloadChecksum(const std::string &Payload) {
  // Same seed the disk cache uses for its entry checksums.
  return hashBytes(0xcbf29ce484222325ull, Payload.data(), Payload.size());
}

std::string gpuc::serve::encodeFrame(MsgType Type,
                                     const std::string &Payload) {
  ByteWriter W;
  W.u32(FrameMagic);
  W.u32(ProtocolVersion);
  W.u32(static_cast<uint32_t>(Type));
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u64(framePayloadChecksum(Payload));
  return W.buffer() + Payload;
}

bool gpuc::serve::decodeFrameHeader(const void *Data, size_t Len,
                                    FrameHeader &Out) {
  if (Len < FrameHeaderBytes)
    return false;
  ByteReader R(Data, FrameHeaderBytes);
  Out.Magic = R.u32();
  Out.Version = R.u32();
  Out.Type = R.u32();
  Out.Length = R.u32();
  Out.Checksum = R.u64();
  return !R.failed();
}

bool gpuc::serve::frameHeaderValid(const FrameHeader &H, const char **Why) {
  const char *Reason = nullptr;
  if (H.Magic != FrameMagic)
    Reason = "bad magic";
  else if (H.Version != ProtocolVersion)
    Reason = "protocol version mismatch";
  else if (!isRequestType(H.Type) &&
           !(H.Type >= 0x81 && H.Type <= 0x85))
    Reason = "unknown message type";
  else if (H.Length > MaxPayloadBytes)
    Reason = "payload length over cap";
  if (Why)
    *Why = Reason;
  return Reason == nullptr;
}

void gpuc::serve::encodeCompileJob(ByteWriter &W, const CompileJob &J) {
  W.str(J.Name);
  W.str(J.Source);
  W.str(J.DeviceName);
  W.u32(J.Flags);
  W.u32(static_cast<uint32_t>(J.BlockN));
  W.u32(static_cast<uint32_t>(J.ThreadM));
  W.u32(J.TimeoutMs);
  W.u8(J.Dialect);
  W.u8(J.Interp);
}

bool gpuc::serve::decodeCompileJob(ByteReader &R, CompileJob &Out) {
  Out.Name = R.str();
  Out.Source = R.str();
  Out.DeviceName = R.str();
  Out.Flags = R.u32();
  Out.BlockN = static_cast<int32_t>(R.u32());
  Out.ThreadM = static_cast<int32_t>(R.u32());
  Out.TimeoutMs = R.u32();
  Out.Dialect = R.u8();
  Out.Interp = R.u8();
  return R.atCleanEnd();
}

void gpuc::serve::encodeCompileResult(ByteWriter &W, const CompileResult &R) {
  W.u32(static_cast<uint32_t>(R.Code));
  W.str(R.Out);
  W.str(R.Err);
  W.f64(R.CritPathMs);
  W.u8(R.WarmFastPath);
}

bool gpuc::serve::decodeCompileResult(ByteReader &R, CompileResult &Out) {
  Out.Code = static_cast<int32_t>(R.u32());
  Out.Out = R.str();
  Out.Err = R.str();
  Out.CritPathMs = R.f64();
  Out.WarmFastPath = R.u8();
  return R.atCleanEnd();
}

void gpuc::serve::encodeError(ByteWriter &W, const ErrorBody &E) {
  W.u32(static_cast<uint32_t>(E.Code));
  W.str(E.Message);
}

bool gpuc::serve::decodeError(ByteReader &R, ErrorBody &Out) {
  Out.Code = static_cast<ErrCode>(R.u32());
  Out.Message = R.str();
  return R.atCleanEnd();
}
