#ifndef TC_RPC_WIRE_H_
#define TC_RPC_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tc/cloud/txn.h"
#include "tc/common/bytes.h"
#include "tc/common/codec.h"
#include "tc/common/overload.h"
#include "tc/common/result.h"
#include "tc/obs/telemetry.h"
#include "tc/obs/trace.h"

namespace tc::rpc {

// ---------------------------------------------------------------------------
// Frame layout
// ---------------------------------------------------------------------------
//
// Every message on the wire is one length-prefixed frame:
//
//   offset size field
//        0    4 magic        "TCW1" (0x54435731, little-endian u32)
//        4    2 version      kWireVersion; a mismatch rejects the frame
//        6    1 op           RpcOp of the request (responses echo it)
//        7    1 flags        bit 0: response; bit 1: pushback (overload);
//                            bits 2-3: request criticality (0 normal,
//                            1 critical, 2 background; 3 is malformed)
//        8    8 request_id   client-chosen; responses echo it (pipelining)
//       16    8 trace_id     caller's obs::TraceContext, propagated so the
//       24    8 span_id      server dispatch parents its spans under the
//       32    8 parent_id    cell operation that issued the RPC
//       40    4 payload_size bytes following the header; capped
//       44    4 budget_us    request: caller's remaining deadline budget in
//                            microseconds (0 = no deadline; a spent one
//                            is sent as 1) — deadline
//                            propagation rides next to trace context;
//                            response with the pushback flag: the server's
//                            retry-after hint. Was `reserved` (always 0) in
//                            the original layout, so old frames decode as
//                            "no deadline / no hint".
//       48    - payload      op-specific body (codecs below)
//
// All integers little-endian fixed width (BinaryWriter's native layout).
// The header is fixed-size so a reader can frame the stream with exactly
// two reads and reject garbage before buffering anything unbounded.

inline constexpr uint32_t kWireMagic = 0x54435731;  // "1WCT" on the wire.
/// Version 2 carries a SnapshotDescriptor as its base_seq alone (version 1
/// also carried two sequence lists), so a version-1 frame decodes as
/// kUnimplemented, never as payload bytes of the other layout.
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 48;
/// Upper bound on one frame's payload; a header asking for more is
/// malformed (protects the reader from attacker-chosen allocations).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

inline constexpr uint8_t kFlagResponse = 0x1;
/// Overload pushback: on a response, the server shed this request and
/// header.budget_us carries its retry-after hint in microseconds.
inline constexpr uint8_t kFlagPushback = 0x2;
/// Criticality of the request rides in flag bits 2-3. Bit value 0 must map
/// to kNormal so a zeroed legacy flags field never grants admission bypass.
inline constexpr uint8_t kFlagCriticalityShift = 2;
inline constexpr uint8_t kFlagCriticalityMask = 0x0C;

/// Operation selector carried in the frame header. Each op's payloads are
/// field lists, written by Encode and read by Decode (tc/common/codec.h);
/// this table is the protocol's one statement of them:
///
///   op                request                  reply
///   kPing             any bytes (echoed)       the request's bytes
///   kGetBlob          string id                Result<Bytes>, u32 delay_us
///   kGetSnapshot      (nothing)                Result<SnapshotDescriptor>,
///                                              u32 delay_us
///   kGetAtSnapshot    string id,               Result<SnapshotRead>,
///                     SnapshotDescriptor       u32 delay_us
///   kCommitTxn        TxnRequest               TxnOutcome
///   kReportTelemetry  an obs telemetry frame,  ReportOutcome, u32 delay_us
///                       verbatim (the hub
///                       decodes it)
///   kScrapeTelemetry  (nothing)                Result<string> json,
///                                              u32 delay_us
///
/// A request whose payload does not decode as its list, trailing bytes
/// included, is malformed: the server closes its connection. Op code 1
/// (the retired put_blob_batch) is never reused: a header naming it is
/// malformed like any unknown op.
enum class RpcOp : uint8_t {
  kPing = 0,
  kGetBlob = 2,
  kGetSnapshot = 3,
  kGetAtSnapshot = 4,
  kCommitTxn = 5,
  kReportTelemetry = 6,
  kScrapeTelemetry = 7,
};

/// The highest op code in use; a header naming a higher one is malformed.
inline constexpr uint8_t kMaxKnownOp =
    static_cast<uint8_t>(RpcOp::kScrapeTelemetry);

const char* RpcOpName(RpcOp op);
bool RpcOpKnown(uint8_t op);

struct FrameHeader {
  uint16_t version = kWireVersion;
  RpcOp op = RpcOp::kPing;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  obs::TraceContext trace;
  uint32_t payload_size = 0;
  /// Request: remaining deadline budget (µs, 0 = none, 1 = spent before
  /// sending); response with the pushback flag: server retry-after hint
  /// (µs).
  uint32_t budget_us = 0;

  bool response() const { return (flags & kFlagResponse) != 0; }
  bool pushback() const { return (flags & kFlagPushback) != 0; }
  Criticality criticality() const {
    return static_cast<Criticality>((flags & kFlagCriticalityMask) >>
                                    kFlagCriticalityShift);
  }
  void set_criticality(Criticality c) {
    flags = static_cast<uint8_t>(
        (flags & ~kFlagCriticalityMask) |
        ((static_cast<uint8_t>(c) << kFlagCriticalityShift) &
         kFlagCriticalityMask));
  }
};

/// Serializes `header` into exactly kFrameHeaderBytes.
Bytes EncodeFrameHeader(const FrameHeader& header);

/// Parses and validates a header: magic, version, known op, payload cap.
/// `data` must hold at least kFrameHeaderBytes. Fails with kCorruption on
/// a malformed header and kUnimplemented on a version mismatch (so the
/// server can distinguish "garbage" from "future peer").
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

/// Frames one connection's inbound byte stream; the server's and the
/// client's reader threads both read through it. One recv of up to 64 KiB
/// can carry many pipelined frames, so the syscall and the reader's
/// wake-up amortize across a burst.
class FrameReader {
 public:
  /// `responses`: the direction this end reads. A frame whose response
  /// flag says otherwise is malformed.
  FrameReader(int fd, bool responses) : fd_(fd), responses_(responses) {}

  /// Reads the next whole frame. Fails kUnavailable when the stream ends
  /// (EOF, reset, shutdown), and with DecodeFrameHeader's status, or
  /// kCorruption for the wrong direction, on a malformed header: the
  /// stream can no longer be framed, so the caller closes the connection.
  Status Next(FrameHeader* header, Bytes* payload);

 private:
  int fd_;
  bool responses_;
  Bytes buf_;
  size_t pos_ = 0;  ///< Start of the first unconsumed frame in buf_.
};

/// Sends all of `bytes` on `fd`, retrying short writes; false when the
/// peer is gone. Callers send one frame, or a burst of frames, per call:
/// with TCP_NODELAY each send is its own packet.
bool WriteFull(int fd, const Bytes& bytes);

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------
//
// Each op's payloads are field lists in the one codec (tc/common/codec.h):
// Encode writes them and Decode reads them, exactly. The transaction
// types' Put/Get sit in tc::cloud (txn.h), ReportOutcome's in tc::obs
// (telemetry.h).

/// Encodes the op's reply carrying only `status` (every other field zero
/// or default): how the server answers a request it refused to execute
/// (an expired deadline) without running the op. kPing's reply is empty.
Bytes EncodeStatusOnlyResponse(RpcOp op, const Status& status);

/// An outcome struct carrying only `status`, every other field default.
template <typename Outcome>
Outcome StatusOnly(const Status& status) {
  Outcome outcome;
  outcome.status = status;
  return outcome;
}

}  // namespace tc::rpc

#endif  // TC_RPC_WIRE_H_
