#include "tc/rpc/wire.h"

#include <sys/socket.h>

#include <cerrno>

namespace tc::rpc {

namespace {

/// Op code 1, the retired put_blob_batch, is never reused.
constexpr uint8_t kRetiredOp = 1;

}  // namespace

const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kPing:
      return "ping";
    case RpcOp::kGetBlob:
      return "get_blob";
    case RpcOp::kGetSnapshot:
      return "get_snapshot";
    case RpcOp::kGetAtSnapshot:
      return "get_at_snapshot";
    case RpcOp::kCommitTxn:
      return "commit_txn";
    case RpcOp::kReportTelemetry:
      return "report_telemetry";
    case RpcOp::kScrapeTelemetry:
      return "scrape_telemetry";
  }
  return "unknown";
}

bool RpcOpKnown(uint8_t op) {
  return op <= kMaxKnownOp && op != kRetiredOp;
}

Bytes EncodeFrameHeader(const FrameHeader& header) {
  BinaryWriter w;
  w.PutU32(kWireMagic);
  w.PutU16(header.version);
  w.PutU8(static_cast<uint8_t>(header.op));
  w.PutU8(header.flags);
  w.PutU64(header.request_id);
  w.PutU64(header.trace.trace_id);
  w.PutU64(header.trace.span_id);
  w.PutU64(header.trace.parent_id);
  w.PutU32(header.payload_size);
  w.PutU32(header.budget_us);
  Bytes out = w.Take();
  TC_CHECK(out.size() == kFrameHeaderBytes);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::Corruption("short frame header");
  }
  Bytes buf(data, data + kFrameHeaderBytes);
  BinaryReader r(buf);
  auto magic = r.GetU32();
  if (!magic.ok() || magic.value() != kWireMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader h;
  h.version = r.GetU16().value();
  uint8_t op = r.GetU8().value();
  h.flags = r.GetU8().value();
  h.request_id = r.GetU64().value();
  h.trace.trace_id = r.GetU64().value();
  h.trace.span_id = r.GetU64().value();
  h.trace.parent_id = r.GetU64().value();
  h.payload_size = r.GetU32().value();
  h.budget_us = r.GetU32().value();
  if (h.version != kWireVersion) {
    return Status::Unimplemented("wire version mismatch");
  }
  if (!RpcOpKnown(op)) {
    return Status::Corruption("unknown rpc op");
  }
  h.op = static_cast<RpcOp>(op);
  // Criticality bit pattern 3 names no class — reject it as corruption
  // rather than letting a garbage frame pick a band by accident.
  if (((h.flags & kFlagCriticalityMask) >> kFlagCriticalityShift) >
      static_cast<uint8_t>(Criticality::kBackground)) {
    return Status::Corruption("unknown criticality class in frame flags");
  }
  if (h.payload_size > kMaxPayloadBytes) {
    return Status::Corruption("frame payload exceeds cap");
  }
  return h;
}

Status FrameReader::Next(FrameHeader* header, Bytes* payload) {
  constexpr size_t kReadChunk = 64 * 1024;
  for (;;) {
    const size_t buffered = buf_.size() - pos_;
    if (buffered >= kFrameHeaderBytes) {
      TC_ASSIGN_OR_RETURN(
          FrameHeader h, DecodeFrameHeader(buf_.data() + pos_, buffered));
      if (h.response() != responses_) {
        return Status::Corruption("frame sent in the wrong direction");
      }
      const size_t need = kFrameHeaderBytes + h.payload_size;
      if (buffered >= need) {
        payload->assign(buf_.begin() + pos_ + kFrameHeaderBytes,
                        buf_.begin() + pos_ + need);
        pos_ += need;
        *header = h;
        return Status::OK();
      }
    }
    // Frame still arriving: drop what was consumed, then read more.
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + pos_);
      pos_ = 0;
    }
    const size_t old_size = buf_.size();
    buf_.resize(old_size + kReadChunk);
    const ssize_t r = ::recv(fd_, buf_.data() + old_size, kReadChunk, 0);
    const bool interrupted = r < 0 && errno == EINTR;
    buf_.resize(old_size + (r > 0 ? static_cast<size_t>(r) : 0));
    if (r <= 0 && !interrupted) {
      return Status::Unavailable("connection closed");  // EOF or reset.
    }
  }
}

bool WriteFull(int fd, const Bytes& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that vanished must surface as EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t r =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

Bytes EncodeStatusOnlyResponse(RpcOp op, const Status& status) {
  // A Result<T> that is not OK is its status and T(), so (status, T())
  // writes the same bytes.
  constexpr uint32_t kNoDelay = 0;
  switch (op) {
    case RpcOp::kPing:
      return Bytes();
    case RpcOp::kGetBlob:
      return Encode(status, Bytes(), kNoDelay);
    case RpcOp::kGetSnapshot:
      return Encode(status, cloud::SnapshotDescriptor(), kNoDelay);
    case RpcOp::kGetAtSnapshot:
      return Encode(status, cloud::SnapshotRead(), kNoDelay);
    case RpcOp::kCommitTxn:
      return Encode(StatusOnly<cloud::TxnOutcome>(status));
    case RpcOp::kReportTelemetry:
      return Encode(StatusOnly<obs::TelemetryHub::ReportOutcome>(status),
                    kNoDelay);
    case RpcOp::kScrapeTelemetry:
      return Encode(status, std::string(), kNoDelay);
  }
  return Bytes();
}

}  // namespace tc::rpc
