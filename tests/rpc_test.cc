// The cloud behind a real wire: frame-codec property sweeps, the TCP
// server/client runtime, and server-lifecycle guarantees (graceful
// shutdown, reconnect-with-token-replay, pool exhaustion).
//
// Socket tests probe loopback availability and GTEST_SKIP with a printed
// reason where the environment forbids AF_INET — the codec tests always
// run.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/cloud/txn.h"
#include "tc/common/rng.h"
#include "tc/fleet/fleet.h"
#include "tc/net/channel.h"
#include "tc/obs/trace.h"
#include "tc/rpc/client.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"
#include "tc/rpc/wire.h"
#include "tc/rpc/wire_harness.h"

namespace tc::rpc {
namespace {

using cloud::CloudInfrastructure;

/// A cell's store: one blind single-write commit under `token`.
cloud::TxnRequest Blind(const std::string& token, const std::string& id,
                        const Bytes& data) {
  cloud::TxnRequest req;
  req.token = token;
  req.writes.push_back({id, data, cloud::kBaseVersionAny});
  return req;
}

#define SKIP_WITHOUT_LOOPBACK()                                           \
  do {                                                                    \
    if (!RpcServer::LoopbackAvailable()) {                                \
      GTEST_SKIP() << "loopback TCP sockets unavailable in this "         \
                      "environment; socket-path test skipped";            \
    }                                                                     \
  } while (false)

// ---------------------------------------------------------------------------
// Frame header codec
// ---------------------------------------------------------------------------

TEST(WireFrameTest, HeaderRoundTripsEveryOp) {
  for (RpcOp rpc_op :
       {RpcOp::kPing, RpcOp::kGetBlob, RpcOp::kGetSnapshot,
        RpcOp::kGetAtSnapshot, RpcOp::kCommitTxn, RpcOp::kReportTelemetry,
        RpcOp::kScrapeTelemetry}) {
    const uint8_t op = static_cast<uint8_t>(rpc_op);
    FrameHeader h;
    h.op = rpc_op;
    h.flags = (op % 2) ? kFlagResponse : 0;
    h.request_id = 0x1122334455667788ULL + op;
    h.trace.trace_id = 0xdeadbeefcafef00dULL;
    h.trace.span_id = 42 + op;
    h.trace.parent_id = 7;
    h.payload_size = 123456;
    Bytes buf = EncodeFrameHeader(h);
    ASSERT_EQ(buf.size(), kFrameHeaderBytes);
    auto decoded = DecodeFrameHeader(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, h.op);
    EXPECT_EQ(decoded->flags, h.flags);
    EXPECT_EQ(decoded->request_id, h.request_id);
    EXPECT_EQ(decoded->trace.trace_id, h.trace.trace_id);
    EXPECT_EQ(decoded->trace.span_id, h.trace.span_id);
    EXPECT_EQ(decoded->trace.parent_id, h.trace.parent_id);
    EXPECT_EQ(decoded->payload_size, h.payload_size);
    EXPECT_EQ(decoded->response(), h.flags == kFlagResponse);
  }
}

TEST(WireFrameTest, RejectsBadMagicVersionOpAndOversize) {
  FrameHeader h;
  Bytes good = EncodeFrameHeader(h);

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeFrameHeader(bad_magic.data(), bad_magic.size())
                .status()
                .code(),
            StatusCode::kCorruption);

  // Version mismatch is distinguishable from garbage: a future peer gets
  // kUnimplemented, not kCorruption.
  Bytes bad_version = good;
  bad_version[4] = 0x7f;
  EXPECT_EQ(DecodeFrameHeader(bad_version.data(), bad_version.size())
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // So does a version-1 peer, whose snapshot descriptors carried two
  // sequence lists this layout no longer has.
  FrameHeader v1;
  v1.version = 1;
  Bytes old_version = EncodeFrameHeader(v1);
  EXPECT_EQ(DecodeFrameHeader(old_version.data(), old_version.size())
                .status()
                .code(),
            StatusCode::kUnimplemented);

  Bytes bad_op = good;
  bad_op[6] = 0xee;
  EXPECT_EQ(DecodeFrameHeader(bad_op.data(), bad_op.size()).status().code(),
            StatusCode::kCorruption);

  // Op 1, the retired put_blob_batch, is never reused: a header naming it
  // is as malformed as one naming an op that never existed.
  EXPECT_FALSE(RpcOpKnown(1));
  Bytes retired_op = good;
  retired_op[6] = 1;
  EXPECT_EQ(DecodeFrameHeader(retired_op.data(), retired_op.size())
                .status()
                .code(),
            StatusCode::kCorruption);

  Bytes oversize = good;
  // payload_size lives at offset 40 (little-endian u32): ask for 4 GiB.
  oversize[40] = oversize[41] = oversize[42] = oversize[43] = 0xff;
  EXPECT_EQ(
      DecodeFrameHeader(oversize.data(), oversize.size()).status().code(),
      StatusCode::kCorruption);

  // Short buffers never over-read.
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_FALSE(DecodeFrameHeader(good.data(), n).ok());
  }
}

// ---------------------------------------------------------------------------
// Payload codec: round-trip property sweep over every RPC type
// ---------------------------------------------------------------------------

Bytes RandomPayload(Rng& rng, size_t n) { return rng.NextBytes(n); }

cloud::SnapshotDescriptor RandomSnapshot(Rng& rng) {
  cloud::SnapshotDescriptor snap;
  snap.base_seq = rng.NextU64() % 100000;
  return snap;
}

TEST(WireCodecTest, GetBlobRoundTripEmptyAndLarge) {
  Rng rng(3);
  for (size_t size : {size_t{0}, size_t{1}, size_t{64 * 1024}}) {
    std::string id;
    ASSERT_TRUE(Decode(Encode(std::string("some/blob")), &id).ok());
    EXPECT_EQ(id, "some/blob");

    Result<Bytes> blob = RandomPayload(rng, size);
    Result<Bytes> decoded_blob = Bytes();
    uint32_t delay = 0;
    Status decoded =
        Decode(Encode(blob, uint32_t{777}), &decoded_blob, &delay);
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    ASSERT_TRUE(decoded_blob.ok());
    EXPECT_EQ(*decoded_blob, *blob);
    EXPECT_EQ(delay, 777u);
  }
  Result<Bytes> not_found = Status::NotFound("no blob");
  Result<Bytes> decoded_blob = Bytes();
  uint32_t delay = 1;
  ASSERT_TRUE(
      Decode(Encode(not_found, uint32_t{0}), &decoded_blob, &delay).ok());
  EXPECT_EQ(decoded_blob.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded_blob.status().message(), "no blob");
}

TEST(WireCodecTest, SnapshotRpcsRoundTrip) {
  Rng rng(4);
  for (int iter = 0; iter < 50; ++iter) {
    Result<cloud::SnapshotDescriptor> snap = RandomSnapshot(rng);
    Result<cloud::SnapshotDescriptor> decoded_snap =
        cloud::SnapshotDescriptor();
    uint32_t delay = 0;
    ASSERT_TRUE(
        Decode(Encode(snap, uint32_t{5}), &decoded_snap, &delay).ok());
    ASSERT_TRUE(decoded_snap.ok());
    EXPECT_EQ(decoded_snap->base_seq, snap->base_seq);
    EXPECT_EQ(delay, 5u);

    const std::string id = "doc" + std::to_string(iter);
    const cloud::SnapshotDescriptor at = RandomSnapshot(rng);
    std::string decoded_id;
    cloud::SnapshotDescriptor decoded_at;
    ASSERT_TRUE(Decode(Encode(id, at), &decoded_id, &decoded_at).ok());
    EXPECT_EQ(decoded_id, id);
    EXPECT_EQ(decoded_at.base_seq, at.base_seq);

    cloud::SnapshotRead read;
    read.data = RandomPayload(rng, rng.NextU64() % 512);
    read.version = rng.NextU64();
    read.commit_seq = rng.NextU64();
    Result<cloud::SnapshotRead> decoded_read = cloud::SnapshotRead();
    ASSERT_TRUE(Decode(Encode(Result<cloud::SnapshotRead>(read), uint32_t{0}),
                       &decoded_read, &delay)
                    .ok());
    ASSERT_TRUE(decoded_read.ok());
    EXPECT_EQ(decoded_read->data, read.data);
    EXPECT_EQ(decoded_read->version, read.version);
    EXPECT_EQ(decoded_read->commit_seq, read.commit_seq);
  }
}

TEST(WireCodecTest, TxnRoundTrip) {
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    cloud::TxnRequest req;
    req.token = "txn/" + std::to_string(iter);
    req.snapshot = RandomSnapshot(rng);
    for (size_t i = rng.NextU64() % 4; i > 0; --i) {
      req.reads.push_back({"key" + std::to_string(rng.NextU64() % 10),
                           rng.NextU64() % 100});
    }
    for (size_t i = rng.NextU64() % 4; i > 0; --i) {
      cloud::TxnWrite w;
      w.id = "key" + std::to_string(rng.NextU64() % 10);
      w.data = RandomPayload(rng, rng.NextU64() % 256);
      w.base_version =
          (rng.NextU64() % 4 == 0) ? cloud::kBaseVersionAny : rng.NextU64() % 100;
      req.writes.push_back(std::move(w));
    }
    cloud::TxnRequest dreq;
    Status decoded = Decode(Encode(req), &dreq);
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    EXPECT_EQ(dreq.token, req.token);
    ASSERT_EQ(dreq.reads.size(), req.reads.size());
    for (size_t i = 0; i < req.reads.size(); ++i) {
      EXPECT_EQ(dreq.reads[i].id, req.reads[i].id);
      EXPECT_EQ(dreq.reads[i].version, req.reads[i].version);
    }
    ASSERT_EQ(dreq.writes.size(), req.writes.size());
    for (size_t i = 0; i < req.writes.size(); ++i) {
      EXPECT_EQ(dreq.writes[i].id, req.writes[i].id);
      EXPECT_EQ(dreq.writes[i].data, req.writes[i].data);
      EXPECT_EQ(dreq.writes[i].base_version, req.writes[i].base_version);
    }

    cloud::TxnOutcome out;
    out.committed = iter % 2;
    out.replayed = iter % 3 == 0;
    out.commit_seq = rng.NextU64();
    if (out.committed) {
      for (size_t i = 0; i < req.writes.size(); ++i) {
        out.versions.push_back(1 + rng.NextU64() % 100);
      }
    } else {
      out.status = Status::Aborted("conflict");
      out.conflict_id = "key3";
    }
    out.delay_us = static_cast<uint32_t>(rng.NextU64());
    out.fault_ordinal = rng.NextU64();
    cloud::TxnOutcome dout;
    ASSERT_TRUE(Decode(Encode(out), &dout).ok());
    EXPECT_EQ(dout.status, out.status);
    EXPECT_EQ(dout.committed, out.committed);
    EXPECT_EQ(dout.replayed, out.replayed);
    EXPECT_EQ(dout.commit_seq, out.commit_seq);
    EXPECT_EQ(dout.versions, out.versions);
    EXPECT_EQ(dout.conflict_id, out.conflict_id);
  }
}

// ---------------------------------------------------------------------------
// Every op's payloads: pinned bytes and hostile-input sweeps
// ---------------------------------------------------------------------------

// One payload of one op: its bytes, a decoder that reads the op's field
// list (wire.h), and the hex the protocol pins for it.
struct PayloadCase {
  std::string name;
  Bytes wire;
  std::function<Status(const Bytes&)> decode;
  std::string golden_hex;
};

// Decodes into copies of `fields`, so it reads exactly their types.
template <typename... Fields>
std::function<Status(const Bytes&)> DecoderOf(Fields... fields) {
  return [fields...](const Bytes& payload) mutable {
    return Decode(payload, &fields...);
  };
}

std::string Hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

// Every op's request, reply and status-only reply, over fixed fixtures.
// Left out: kPing's payloads (echoed, never decoded) and the
// kReportTelemetry request (an obs telemetry frame; its own codec and
// tests live in tc::obs).
//
// The golden hex was generated by the per-op encoders that this codec
// replaced (commit 2df1a74), from a one-off program built against that
// commit over these same fixtures; the two empty requests are the empty
// payloads its SocketTransport sent. Matching it proves the codec left
// every byte on the wire unchanged.
//
// Wire version 2 shrank a SnapshotDescriptor to its base_seq. Exactly four
// cases changed with it — the get_snapshot reply, its status-only reply,
// the get_at_snapshot request and the commit_txn request — and each one's
// hex is its version-1 hex with the descriptor's two encoded lists (the
// sequences committed above the base, and the per-stripe high-water
// marks) cut out; every other case is the version-1 hex.
std::vector<PayloadCase> EveryPayload() {
  cloud::SnapshotDescriptor snap;
  snap.base_seq = 5;

  const Result<Bytes> blob = Bytes{0xde, 0xad};
  const Result<Bytes> blob_missing = Status::NotFound("no blob");

  cloud::SnapshotRead read;
  read.data = Bytes{4, 5, 6};
  read.version = 2;
  read.commit_seq = 7;

  cloud::TxnRequest txn;
  txn.token = "txn/1";
  txn.snapshot = snap;
  txn.reads = {{"doc/a", 1}, {"doc/c", 0}};
  txn.writes = {{"doc/a", Bytes{9, 9}, 1},
                {"doc/c", Bytes{8}, cloud::kBaseVersionAny}};
  cloud::TxnOutcome committed;
  committed.committed = true;
  committed.commit_seq = 10;
  committed.versions = {2, 1};
  committed.delay_us = 3;
  cloud::TxnOutcome aborted;
  aborted.status = Status::Aborted("conflict on doc/a");
  aborted.conflict_id = "doc/a";
  aborted.fault_ordinal = 4;

  obs::TelemetryHub::ReportOutcome report;
  report.applied = true;
  report.last_seq = 42;

  const Result<std::string> json = std::string("{\"cells\":2}");
  const Status shed = Status::ResourceExhausted("shed");
  auto shed_reply = [&](RpcOp op) {
    return EncodeStatusOnlyResponse(op, shed);
  };

  const auto get_request = DecoderOf(std::string());
  const auto get_reply = DecoderOf(blob, uint32_t{0});
  const auto no_fields = DecoderOf();
  const auto snapshot_reply =
      DecoderOf(Result<cloud::SnapshotDescriptor>(snap), uint32_t{0});
  const auto at_request = DecoderOf(std::string(), snap);
  const auto at_reply =
      DecoderOf(Result<cloud::SnapshotRead>(read), uint32_t{0});
  const auto txn_request = DecoderOf(txn);
  const auto txn_reply = DecoderOf(committed);
  const auto report_reply = DecoderOf(report, uint32_t{0});
  const auto scrape_reply = DecoderOf(json, uint32_t{0});
  return {
      {"get_blob request", Encode(std::string("doc/a")), get_request,
       "05646f632f61"},
      {"get_blob reply", Encode(blob, uint32_t{17}), get_reply,
       "000002dead11000000"},
      {"get_blob error reply", Encode(blob_missing, uint32_t{0}), get_reply,
       "02076e6f20626c6f620000000000"},
      {"get_blob status-only reply", shed_reply(RpcOp::kGetBlob), get_reply,
       "0704736865640000000000"},
      {"get_snapshot request", Encode(), no_fields, ""},
      {"get_snapshot reply",
       Encode(Result<cloud::SnapshotDescriptor>(snap), uint32_t{2}),
       snapshot_reply, "0000050000000000000002000000"},
      {"get_snapshot status-only reply", shed_reply(RpcOp::kGetSnapshot),
       snapshot_reply, "070473686564000000000000000000000000"},
      {"get_at_snapshot request", Encode(std::string("doc/a"), snap),
       at_request, "05646f632f610500000000000000"},
      {"get_at_snapshot reply",
       Encode(Result<cloud::SnapshotRead>(read), uint32_t{5}), at_reply,
       "0000030405060200000000000000070000000000000005000000"},
      {"get_at_snapshot status-only reply", shed_reply(RpcOp::kGetAtSnapshot),
       at_reply, "070473686564000000000000000000000000000000000000000000"},
      {"commit_txn request", Encode(txn), txn_request,
       "0574786e2f3105000000000000000205646f632f6101000000000000000564"
       "6f632f6300000000000000000205646f632f6102090901000000000000000564"
       "6f632f630108ffffffffffffffff"},
      {"commit_txn reply", Encode(committed), txn_reply,
       "000001000a000000000000000202000000000000000100000000000000000300"
       "00000000000000000000"},
      {"commit_txn error reply", Encode(aborted), txn_reply,
       "1111636f6e666c696374206f6e20646f632f6100000000000000000000000564"
       "6f632f61000000000400000000000000"},
      {"commit_txn status-only reply", shed_reply(RpcOp::kCommitTxn),
       txn_reply,
       "070473686564000000000000000000000000000000000000000000000000"},
      {"report_telemetry reply", Encode(report, uint32_t{11}), report_reply,
       "000001002a000000000000000b000000"},
      {"report_telemetry status-only reply",
       shed_reply(RpcOp::kReportTelemetry), report_reply,
       "0704736865640000000000000000000000000000"},
      {"scrape_telemetry request", Encode(), no_fields, ""},
      {"scrape_telemetry reply", Encode(json, uint32_t{0}), scrape_reply,
       "00000b7b2263656c6c73223a327d00000000"},
      {"scrape_telemetry status-only reply",
       shed_reply(RpcOp::kScrapeTelemetry), scrape_reply,
       "0704736865640000000000"},
  };
}

TEST(WireCodecTest, EveryPayloadMatchesItsPinnedBytes) {
  for (const PayloadCase& c : EveryPayload()) {
    EXPECT_EQ(Hex(c.wire), c.golden_hex) << c.name;
  }
  EXPECT_TRUE(
      EncodeStatusOnlyResponse(RpcOp::kPing, Status::ResourceExhausted("x"))
          .empty());
}

// Every decoder must reject every truncation of a valid payload without
// crashing or over-reading, and survive deterministic byte corruption
// (either failing cleanly or decoding *something* — never UB).
TEST(WireCodecTest, TruncationAndFuzzNeverCrashOrOverRead) {
  for (const PayloadCase& c : EveryPayload()) {
    // Full payload decodes.
    EXPECT_TRUE(c.decode(c.wire).ok()) << c.name;
    // Every strict prefix fails cleanly (ASan enforces "no over-read").
    for (size_t n = 0; n < c.wire.size(); ++n) {
      Bytes truncated(c.wire.begin(), c.wire.begin() + n);
      Status s = c.decode(truncated);
      EXPECT_FALSE(s.ok()) << c.name << " decoded a " << n
                           << "-byte prefix of " << c.wire.size();
    }
    // Deterministic byte fuzz: flip each byte through a few values. The
    // decode may succeed (data bytes) or fail (structure bytes); it must
    // never crash, hang or over-read.
    for (size_t pos = 0; pos < c.wire.size(); ++pos) {
      for (uint8_t delta : {0x01, 0x80, 0xff}) {
        Bytes fuzzed = c.wire;
        fuzzed[pos] ^= delta;
        (void)c.decode(fuzzed);
      }
    }
    // Appended trailing garbage is rejected (framing is exact).
    Bytes padded = c.wire;
    padded.push_back(0xab);
    EXPECT_FALSE(c.decode(padded).ok()) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Socket round-trips
// ---------------------------------------------------------------------------

class RpcSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!RpcServer::LoopbackAvailable()) {
      GTEST_SKIP() << "loopback TCP sockets unavailable in this "
                      "environment; socket-path test skipped";
    }
  }

  std::unique_ptr<RpcServer> StartServer(CloudInfrastructure* cloud,
                                         RpcServer::Options options = {}) {
    auto server = std::make_unique<RpcServer>(cloud, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }
};

TEST_F(RpcSocketTest, FullRpcSurfaceRoundTripsTheWire) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  SocketTransport transport("127.0.0.1", server->port());

  // Two stores: blind single-write commits under tokens.
  const cloud::TxnRequest store_a = Blind("tok/a", "doc/a", Bytes{1, 2, 3});
  auto put = transport.CommitTxn(store_a);
  ASSERT_TRUE(put.committed) << put.status.ToString();
  EXPECT_EQ(put.versions, std::vector<uint64_t>{1});
  auto put_b = transport.CommitTxn(Blind("tok/b", "doc/b", Bytes{9, 8, 7, 6}));
  ASSERT_TRUE(put_b.committed) << put_b.status.ToString();
  EXPECT_EQ(put_b.versions, std::vector<uint64_t>{1});

  // Token idempotency survives the wire: same token, same answer, no new
  // version.
  auto replay = transport.CommitTxn(store_a);
  ASSERT_TRUE(replay.committed);
  EXPECT_TRUE(replay.replayed);
  EXPECT_EQ(replay.versions, put.versions);
  EXPECT_EQ(cloud.LatestBlobVersion("doc/a").value_or(0), 1u);

  // GetBlob.
  uint32_t delay = 1234;
  auto got = transport.GetBlob("doc/a", &delay);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(delay, 0u);  // No injector attached: clean attempt.
  auto missing = transport.GetBlob("doc/none", nullptr);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Snapshot acquisition + snapshot read.
  auto snap = transport.GetSnapshot(nullptr);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto at = transport.GetAtSnapshot("doc/b", snap.value(), nullptr);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(at->data, (Bytes{9, 8, 7, 6}));
  EXPECT_EQ(at->version, 1u);

  // CommitTxn: read-validated write on top of the snapshot.
  cloud::TxnRequest txn;
  txn.token = "txn/1";
  txn.snapshot = snap.value();
  txn.reads.push_back({"doc/a", 1});
  txn.writes.push_back({"doc/a", Bytes{4, 4, 4}, 1});
  auto outcome = transport.CommitTxn(txn);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_TRUE(outcome.committed);
  ASSERT_EQ(outcome.versions.size(), 1u);
  EXPECT_EQ(outcome.versions[0], 2u);

  // Txn token replay answered from the table, not re-applied.
  auto outcome2 = transport.CommitTxn(txn);
  EXPECT_TRUE(outcome2.committed);
  EXPECT_TRUE(outcome2.replayed);
  EXPECT_EQ(outcome2.commit_seq, outcome.commit_seq);
  EXPECT_EQ(cloud.LatestBlobVersion("doc/a").value_or(0), 2u);

  EXPECT_GE(server->stats().requests, 8u);
  EXPECT_EQ(server->stats().malformed, 0u);
}

TEST_F(RpcSocketTest, ResilientChannelSpeaksSocketTransport) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  SocketTransport transport("127.0.0.1", server->port());
  net::ChannelOptions channel_options;
  net::ResilientChannel channel(&transport, "cellA", channel_options);

  const cloud::TxnRequest store = Blind("cellA|doc|v1", "cellA/doc", Bytes{1});
  auto v1 = channel.CommitTxn(store);
  ASSERT_TRUE(v1.committed) << v1.status.ToString();
  auto v1_again = channel.CommitTxn(store);
  ASSERT_TRUE(v1_again.committed);
  EXPECT_EQ(v1.versions, v1_again.versions);  // Exactly-once over the wire.

  auto data = channel.Get("cellA/doc");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), Bytes{1});
}

TEST_F(RpcSocketTest, TraceContextPropagatesAcrossTheFrameHeader) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);

  // Client-side: install a context, capture what the codec puts on the
  // wire for it (the client fills the header from CurrentContext()).
  obs::TraceContext ctx;
  ctx.trace_id = 0x1111;
  ctx.span_id = 0x2222;
  ctx.parent_id = 0x3333;
  SocketTransport transport("127.0.0.1", server->port());
  {
    obs::ScopedTraceContext scoped(ctx);
    auto put = transport.CommitTxn(Blind("t/tok", "t/doc", Bytes{1}));
    ASSERT_TRUE(put.committed) << put.status.ToString();
  }
  // The server restored the caller's context inside Dispatch; the blob
  // landing proves the request crossed with the header intact (the header
  // round-trip test pins the trace fields byte-exactly; here we pin the
  // end-to-end path doesn't corrupt framing when trace ids are set).
  EXPECT_TRUE(cloud.BlobExists("t/doc"));
}

// ---------------------------------------------------------------------------
// Malformed input against a live server
// ---------------------------------------------------------------------------

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // A server that answers instead of closing fails the test, not hangs it.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `data`, then waits for the server to close the connection (recv
/// returning 0/EOF) — the clean-close contract for malformed frames.
bool SendThenExpectEof(int fd, const Bytes& data) {
  if (::send(fd, data.data(), data.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(data.size())) {
    return false;
  }
  uint8_t buf[64];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) return true;   // Clean EOF.
    if (r < 0) return errno == ECONNRESET;  // Also a close, less polite.
  }
}

TEST_F(RpcSocketTest, MalformedFrameClosesConnectionCleanly) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);

  // Garbage magic.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    Bytes garbage(kFrameHeaderBytes, 0x5a);
    EXPECT_TRUE(SendThenExpectEof(fd, garbage));
    ::close(fd);
  }
  // Version from the future.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    FrameHeader h;
    h.version = 99;
    Bytes frame = EncodeFrameHeader(h);
    EXPECT_TRUE(SendThenExpectEof(fd, frame));
    ::close(fd);
  }
  // Well-formed header, undecodable payload.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    FrameHeader h;
    h.op = RpcOp::kCommitTxn;
    h.payload_size = 4;
    Bytes frame = EncodeFrameHeader(h);
    Bytes junk = {0xff, 0xff, 0xff, 0xff};
    frame.insert(frame.end(), junk.begin(), junk.end());
    EXPECT_TRUE(SendThenExpectEof(fd, frame));
    ::close(fd);
  }

  // The server survived all three and still serves new connections.
  SocketTransport transport("127.0.0.1", server->port());
  auto put = transport.CommitTxn(Blind("ok/tok", "ok/doc", Bytes{1}));
  EXPECT_TRUE(put.committed) << put.status.ToString();
  EXPECT_GE(server->stats().malformed, 3u);
  EXPECT_GE(server->stats().version_mismatch, 1u);
}

TEST_F(RpcSocketTest, RequestCarryingBytesItsOpHasNoFieldForClosesConnection) {
  // kGetSnapshot's request has no fields: a payload byte is trailing
  // garbage, exactly as on every other op.
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  int fd = ConnectTo(server->port());
  ASSERT_GE(fd, 0);
  FrameHeader h;
  h.op = RpcOp::kGetSnapshot;
  h.payload_size = 1;
  Bytes frame = EncodeFrameHeader(h);
  frame.push_back(0x00);
  const uint64_t malformed_before = server->stats().malformed;
  EXPECT_TRUE(SendThenExpectEof(fd, frame));
  ::close(fd);
  EXPECT_EQ(server->stats().malformed, malformed_before + 1);
}

TEST_F(RpcSocketTest, RetiredPutBatchOpClosesConnection) {
  // Op 1 was put_blob_batch. A frame naming it, carrying what was once a
  // well-formed request for it, is malformed: the server closes the
  // connection and stores nothing.
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  int fd = ConnectTo(server->port());
  ASSERT_GE(fd, 0);
  const Bytes body =
      Encode(std::vector<std::pair<std::string, Bytes>>{{"old/doc", Bytes{1}}},
             std::vector<std::string>{"old/tok"});
  FrameHeader h;
  h.payload_size = static_cast<uint32_t>(body.size());
  Bytes frame = EncodeFrameHeader(h);
  frame[6] = 1;  // The op byte.
  frame.insert(frame.end(), body.begin(), body.end());
  obs::Counter& malformed =
      obs::MetricRegistry::Global().GetCounter("rpc.server.malformed");
  const uint64_t malformed_before = malformed.Value();
  const uint64_t stats_before = server->stats().malformed;
  EXPECT_TRUE(SendThenExpectEof(fd, frame));
  ::close(fd);
  EXPECT_EQ(malformed.Value(), malformed_before + 1);
  EXPECT_EQ(server->stats().malformed, stats_before + 1);
  EXPECT_FALSE(cloud.BlobExists("old/doc"));
}

TEST_F(RpcSocketTest, ReplyNamingAnotherOpFailsTheCall) {
  // A raw peer answers a GetBlob request with a frame that names
  // kScrapeTelemetry. Its payload, a scrape reply, would decode as a
  // blob (a string and a blob encode alike), so only the echoed op tells
  // the client the reply is not its request's: the connection is torn
  // down and the call fails kUnavailable.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([lfd] {
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    FrameReader reader(fd, /*responses=*/false);
    FrameHeader request;
    Bytes payload;
    if (reader.Next(&request, &payload).ok()) {
      Bytes body = Encode(Result<std::string>(std::string("x")), uint32_t{0});
      FrameHeader reply = request;
      reply.op = RpcOp::kScrapeTelemetry;
      reply.flags = kFlagResponse;
      reply.budget_us = 0;
      reply.payload_size = static_cast<uint32_t>(body.size());
      Bytes frame = EncodeFrameHeader(reply);
      frame.insert(frame.end(), body.begin(), body.end());
      WriteFull(fd, frame);
      // Hold the connection until the client closes it.
      while (reader.Next(&request, &payload).ok()) {
      }
    }
    ::close(fd);
  });
  {
    RpcClientPool::Options pool_options;
    pool_options.connections = 1;
    SocketTransport transport("127.0.0.1", ntohs(addr.sin_port),
                              pool_options);
    auto blob = transport.GetBlob("doc/a", nullptr);
    EXPECT_EQ(blob.status().code(), StatusCode::kUnavailable)
        << (blob.ok() ? "OK with " + std::to_string(blob->size()) + " bytes"
                      : blob.status().ToString());
  }
  peer.join();
  ::close(lfd);
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

TEST_F(RpcSocketTest, GracefulShutdownWithInFlightRequestsAcksOrAborts) {
  // Slow provider ops (wall-clock) guarantee requests are genuinely
  // in-flight inside the worker pool when Shutdown lands.
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 20000;  // 20 ms per op.
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  RpcServer::Options server_options;
  server_options.worker_threads = 4;
  auto server = StartServer(&cloud, server_options);
  SocketTransport transport("127.0.0.1", server->port());

  constexpr int kCalls = 16;
  std::atomic<int> acked{0}, failed{0};
  std::vector<std::thread> callers;
  callers.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      auto put = transport.CommitTxn(Blind("tok" + std::to_string(i),
                                           "doc" + std::to_string(i),
                                           Bytes{static_cast<uint8_t>(i)}));
      if (put.committed) {
        acked.fetch_add(1);
      } else {
        // Aborted-by-shutdown: transport-level kUnavailable, never a
        // fabricated provider answer.
        EXPECT_TRUE(put.status.IsTransient() ||
                    put.status.IsDeadlineExceeded())
            << put.status.ToString();
        failed.fetch_add(1);
      }
    });
  }
  // Let some land in the pool, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Shutdown();
  for (auto& t : callers) t.join();

  EXPECT_EQ(acked.load() + failed.load(), kCalls);
  // Every ack is durable: the blobs the clients saw acked exist.
  size_t stored = cloud.ListBlobs("doc").size();
  EXPECT_GE(stored, static_cast<size_t>(acked.load()));
  // No worker leak / double shutdown issues.
  server->Shutdown();
  EXPECT_FALSE(server->running());
}

TEST_F(RpcSocketTest, ClientReconnectsAfterServerRestartWithoutDuplicates) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  const uint16_t port = server->port();
  RpcClientPool::Options pool_options;
  pool_options.connections = 1;
  SocketTransport transport("127.0.0.1", port, pool_options);

  auto put = transport.CommitTxn(Blind("r/tok1", "r/doc", Bytes{1}));
  ASSERT_TRUE(put.committed) << put.status.ToString();
  ASSERT_EQ(put.versions[0], 1u);

  // Server restart (same provider state, same port — the cell outbox
  // scenario: provider process bounced, storage survived).
  server->Shutdown();
  const cloud::TxnRequest second = Blind("r/tok2", "r/doc", Bytes{2});
  auto lost = transport.CommitTxn(second);
  EXPECT_FALSE(lost.committed);
  EXPECT_TRUE(lost.status.IsTransient() || lost.status.IsDeadlineExceeded())
      << lost.status.ToString();

  RpcServer::Options restart_options;
  restart_options.port = port;
  server = StartServer(&cloud, restart_options);
  ASSERT_EQ(server->port(), port);

  // The client lazily reconnects; the outbox-style retry re-sends under
  // the ORIGINAL token, so even if the pre-restart attempt had landed,
  // the token table dedupes: no duplicate versions.
  auto drained = transport.CommitTxn(second);
  ASSERT_TRUE(drained.committed) << drained.status.ToString();
  EXPECT_EQ(drained.versions[0], 2u);
  auto replay = transport.CommitTxn(second);
  ASSERT_TRUE(replay.committed);
  EXPECT_TRUE(replay.replayed);
  EXPECT_EQ(replay.versions[0], 2u);  // Same token -> same version.
  EXPECT_EQ(cloud.LatestBlobVersion("r/doc").value_or(0), 2u);
}

TEST_F(RpcSocketTest, WarmedPoolSurvivesServerRestartWithoutColdConnect) {
  // Regression: with lazy reconnect only, a provider restart left every
  // pooled connection dead, and each connection's NEXT caller paid the TCP
  // connect inside its own request deadline — a burst of spurious
  // kDeadlineExceeded/kUnavailable per restart. Warmup() after the restart
  // makes the pool healthy again before callers arrive, so a run of calls
  // right after it all succeed.
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  const uint16_t port = server->port();

  RpcClientPool::Options pool_options;
  pool_options.host = "127.0.0.1";
  pool_options.port = port;
  pool_options.connections = 2;
  pool_options.warmup = true;
  pool_options.request_timeout_ms = 2000;
  RpcClientPool pool(pool_options);

  // Warmup ran in the constructor: every connection is already healthy.
  EXPECT_EQ(pool.connected_count(), pool.connection_count());
  auto ping = pool.Call(RpcOp::kPing, Bytes());
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();

  server->Shutdown();
  RpcServer::Options restart_options;
  restart_options.port = port;
  server = StartServer(&cloud, restart_options);
  ASSERT_EQ(server->port(), port);

  // Warmup restores the whole pool off the callers' critical path, right
  // away: a connection whose reader has not yet seen the old server's EOF
  // fails its ping, and Warmup reconnects it and pings again.
  EXPECT_EQ(pool.Warmup(), pool.connection_count());
  EXPECT_EQ(pool.connected_count(), pool.connection_count());

  // Every post-recovery call succeeds: nobody eats a cold connect (or a
  // dead socket) inside their deadline. Round-robin covers both conns.
  for (int i = 0; i < 8; ++i) {
    auto call = pool.Call(RpcOp::kPing, Bytes());
    EXPECT_TRUE(call.ok()) << "call " << i << ": " << call.status().ToString();
  }
  pool.Close();
}

TEST_F(RpcSocketTest, WarmupReconnectsAConnectionWhosePingFindsItDead) {
  // A scripted peer reads the first connection's ping and closes it
  // unanswered, the way a restarted provider leaves a connection that
  // still reads as connected; it answers the ping on the second
  // connection. The failed ping tore the dead connection down, so Warmup
  // reconnects and pings once more: one healthy connection out of one.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 2), 0);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([lfd] {
    FrameHeader request;
    Bytes payload;
    int first = ::accept(lfd, nullptr, nullptr);
    if (first < 0) return;
    {
      FrameReader reader(first, /*responses=*/false);
      (void)reader.Next(&request, &payload);
    }
    ::close(first);
    int second = ::accept(lfd, nullptr, nullptr);
    if (second < 0) return;
    FrameReader reader(second, /*responses=*/false);
    if (reader.Next(&request, &payload).ok()) {
      FrameHeader reply = request;
      reply.flags = kFlagResponse;
      reply.budget_us = 0;
      reply.payload_size = 0;
      WriteFull(second, EncodeFrameHeader(reply));
      // Hold the connection until the client closes it.
      while (reader.Next(&request, &payload).ok()) {
      }
    }
    ::close(second);
  });
  {
    RpcClientPool::Options pool_options;
    pool_options.port = ntohs(addr.sin_port);
    pool_options.connections = 1;
    pool_options.request_timeout_ms = 2000;
    RpcClientPool pool(pool_options);
    EXPECT_EQ(pool.Warmup(), 1u);
    EXPECT_EQ(pool.connected_count(), 1u);
  }
  // Wakes the peer's accept if no second connection ever came.
  ::shutdown(lfd, SHUT_RDWR);
  peer.join();
  ::close(lfd);
}

TEST_F(RpcSocketTest, PoolExhaustionReturnsUnavailableNotDeadlock) {
  // One slow server worker + a tiny in-flight cap: the overflow calls must
  // fail fast with kUnavailable, not queue behind the slow ones.
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 50000;  // 50 ms per op.
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  RpcServer::Options server_options;
  server_options.worker_threads = 1;
  auto server = StartServer(&cloud, server_options);

  RpcClientPool::Options pool_options;
  pool_options.connections = 1;
  pool_options.max_in_flight = 2;
  pool_options.request_timeout_ms = 10000;
  SocketTransport transport("127.0.0.1", server->port(), pool_options);

  constexpr int kCalls = 8;
  std::atomic<int> ok{0}, exhausted{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      auto put = transport.CommitTxn(Blind("x/tok" + std::to_string(i),
                                           "x/doc" + std::to_string(i),
                                           Bytes{1}));
      if (put.committed) {
        ok.fetch_add(1);
      } else {
        ASSERT_EQ(put.status.code(), StatusCode::kUnavailable)
            << put.status.ToString();
        exhausted.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();  // Terminates = no deadlock.
  EXPECT_EQ(ok.load() + exhausted.load(), kCalls);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(exhausted.load(), 1);  // The cap actually bit.
}

TEST_F(RpcSocketTest, ClientDeadlineExceededOnSlowServer) {
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 200000;  // 200 ms per op.
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  auto server = StartServer(&cloud);
  RpcClientPool::Options pool_options;
  pool_options.request_timeout_ms = 20;  // Far below the op latency.
  SocketTransport transport("127.0.0.1", server->port(), pool_options);
  auto put = transport.CommitTxn(Blind("d/tok", "d/doc", Bytes{1}));
  EXPECT_EQ(put.status.code(), StatusCode::kDeadlineExceeded)
      << put.status.ToString();
}

// ---------------------------------------------------------------------------
// Socket-path fleet leg (also runs under TSan: accept/dispatch/pool races)
// ---------------------------------------------------------------------------

TEST_F(RpcSocketTest, FleetChaosSweepOverRealSocketsLosesNoAckedWrite) {
  cloud::NetworkFaultConfig fault_config;
  fault_config.seed = 77;
  fault_config.drop_request_prob = 0.10;
  fault_config.drop_ack_prob = 0.10;
  fault_config.duplicate_prob = 0.05;
  cloud::NetworkFaultInjector injector(fault_config);
  CloudInfrastructure cloud;
  cloud.set_fault_injector(&injector);

  RpcServer::Options server_options;
  server_options.worker_threads = 4;
  auto server = StartServer(&cloud, server_options);
  RpcClientPool::Options pool_options;
  pool_options.connections = 4;
  SocketTransport transport("127.0.0.1", server->port(), pool_options);

  fleet::FleetOptions options;
  options.cells = 6;
  options.threads = 3;
  options.rounds_per_cell = 8;
  options.docs_per_cell = 4;
  options.writes_per_round = 2;
  options.gets_per_round = 2;
  options.payload_bytes = 64;
  options.send_prob = 0.0;
  options.transport = &transport;
  options.seed = 99;

  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The fleet's own invariant checks (no acked-write loss, read-back
  // verification, convergence audit) ran against real sockets under
  // injected faults; a clean report is the assertion.
  EXPECT_EQ(report->cells_failed, 0u);
  EXPECT_TRUE(report->converged);
  EXPECT_GT(report->puts, 0u);
}

// ---------------------------------------------------------------------------
// WireHarness toggle
// ---------------------------------------------------------------------------

TEST(WireHarnessTest, InertWithoutEnvToggle) {
  if (WireHarness::SocketRequested()) {
    GTEST_SKIP() << "TC_TRANSPORT=socket is set; inertness test not "
                    "applicable in the wire leg";
  }
  CloudInfrastructure cloud;
  WireHarness harness(&cloud);
  EXPECT_EQ(harness.transport(), nullptr);
  EXPECT_EQ(harness.server(), nullptr);
}

}  // namespace
}  // namespace tc::rpc
