// tc::obs::AuditJournal — hash-chain construction and the tamper-evidence
// property: against the exported stream plus the out-of-band anchors
// (expected head + count), Verify must detect 100% of injected
// truncations, reorderings and bit-flips, while an untampered journal of
// >= 10k records verifies clean.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tc/common/codec.h"
#include "tc/common/rng.h"
#include "tc/obs/audit_journal.h"
#include "tc/obs/trace.h"

namespace tc::obs {
namespace {

AuditRecord MakeRecord(int i) {
  AuditRecord r;
  r.time = 1000 + i;
  r.kind = static_cast<AuditKind>(1 + i % 5);
  r.subject = "subject-" + std::to_string(i % 7);
  r.action = "action-" + std::to_string(i % 3);
  r.object = "object-" + std::to_string(i);
  r.allowed = i % 2 == 0;
  r.detail = "detail " + std::to_string(i);
  return r;
}

TEST(AuditJournalTest, RecordSerializationRoundTrips) {
  AuditRecord r = MakeRecord(3);
  r.index = 42;
  r.trace_id = 7;
  r.span_id = 9;
  auto back = AuditRecord::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->index, 42u);
  EXPECT_EQ(back->kind, r.kind);
  EXPECT_EQ(back->subject, r.subject);
  EXPECT_EQ(back->object, r.object);
  EXPECT_EQ(back->allowed, r.allowed);
  EXPECT_EQ(back->trace_id, 7u);
  EXPECT_EQ(back->span_id, 9u);
}

TEST(AuditJournalTest, AppendStampsIndexAndActiveTraceContext) {
  AuditJournal journal;
  TraceRing::Global().Clear();
  uint64_t trace_id = 0, span_id = 0;
  {
    TraceSpan span("test", "audited_op");
    trace_id = span.context().trace_id;
    span_id = span.context().span_id;
    journal.Append(MakeRecord(0));
  }
  journal.Append(MakeRecord(1));  // Un-traced.
  std::vector<AuditRecord> tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].index, 0u);
  EXPECT_EQ(tail[0].trace_id, trace_id);
  EXPECT_EQ(tail[0].span_id, span_id);
  EXPECT_EQ(tail[1].index, 1u);
  EXPECT_EQ(tail[1].trace_id, 0u);
}

TEST(AuditJournalTest, TailReturnsTheLastRecordsAppended) {
  // The journal holds each record once, serialized; Tail decodes the last
  // n of them.
  AuditJournal journal;
  constexpr int kRecords = 10;
  std::vector<TraceContext> contexts;
  for (int i = 0; i < kRecords; ++i) {
    TraceSpan span("test", "audited_op");
    contexts.push_back(span.context());
    journal.Append(MakeRecord(i));
  }

  constexpr size_t kTail = 7;
  std::vector<AuditRecord> tail = journal.Tail(kTail);
  ASSERT_EQ(tail.size(), kTail);
  for (size_t k = 0; k < kTail; ++k) {
    const size_t i = kRecords - kTail + k;
    EXPECT_EQ(tail[k].index, i);
    EXPECT_EQ(tail[k].object, MakeRecord(static_cast<int>(i)).object);
    EXPECT_EQ(tail[k].trace_id, contexts[i].trace_id);
    EXPECT_EQ(tail[k].span_id, contexts[i].span_id);
  }
  EXPECT_EQ(journal.Tail(100).size(), size_t{kRecords});
  EXPECT_TRUE(journal.Tail(0).empty());
}

TEST(AuditJournalTest, TenThousandRecordJournalVerifiesClean) {
  AuditJournal journal;
  constexpr int kRecords = 10000;
  for (int i = 0; i < kRecords; ++i) journal.Append(MakeRecord(i));
  EXPECT_EQ(journal.record_count(), uint64_t(kRecords));

  Bytes head = journal.head();
  AuditVerifyReport report =
      AuditJournal::Verify(journal.Export(), &head, kRecords);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.record_count, uint64_t(kRecords));
  ASSERT_EQ(report.records.size(), size_t(kRecords));
  EXPECT_EQ(report.records[kRecords - 1].index, uint64_t(kRecords - 1));
  EXPECT_EQ(report.head, head);
}

// ------------------------------------------------ corruption property test

struct ParsedStream {
  uint64_t items = 0;
  std::vector<std::pair<uint8_t, Bytes>> entries;
};

ParsedStream ParseStream(const Bytes& exported) {
  ParsedStream out;
  BinaryReader r(exported);
  EXPECT_TRUE(r.GetString().ok());
  out.items = *r.GetVarint();
  for (uint64_t i = 0; i < out.items; ++i) {
    uint8_t tag = *r.GetU8();
    out.entries.emplace_back(tag, *r.GetBytes());
  }
  return out;
}

Bytes RebuildStream(const ParsedStream& stream) {
  BinaryWriter w;
  w.PutString("tc.obs.journal.v1");
  w.PutVarint(stream.entries.size());
  for (const auto& [tag, payload] : stream.entries) {
    w.PutU8(tag);
    w.PutBytes(payload);
  }
  return w.Take();
}

TEST(AuditJournalTest, AnItemWithAnyOtherTagIsCorrupt) {
  // Records are the journal's only items: the tag 0x02 that in-chain
  // checkpoints once used, or any other tag, makes the stream corrupt even
  // when the verifier holds no anchors.
  AuditJournal journal;
  for (int i = 0; i < 4; ++i) journal.Append(MakeRecord(i));
  const ParsedStream clean = ParseStream(journal.Export());
  ASSERT_TRUE(AuditJournal::Verify(RebuildStream(clean)).ok);
  for (uint8_t tag : {0x00, 0x02, 0x03, 0xff}) {
    ParsedStream retagged = clean;
    retagged.entries[2].first = tag;
    EXPECT_FALSE(AuditJournal::Verify(RebuildStream(retagged)).ok) << +tag;
    ParsedStream extended = clean;
    extended.entries.emplace_back(
        tag, Encode(uint64_t{4}, journal.head(), Bytes{0xcc}));
    AuditVerifyReport report = AuditJournal::Verify(RebuildStream(extended));
    EXPECT_FALSE(report.ok) << +tag;
    EXPECT_EQ(report.error, "unknown item tag") << +tag;
  }
}

TEST(AuditJournalProperty, AllInjectedCorruptionsDetected) {
  AuditJournal journal;
  constexpr int kRecords = 300;
  for (int i = 0; i < kRecords; ++i) journal.Append(MakeRecord(i));
  const Bytes exported = journal.Export();
  const Bytes head = journal.head();
  ASSERT_TRUE(AuditJournal::Verify(exported, &head, kRecords).ok);

  Rng rng(20260807);
  size_t trials = 0, detected = 0;
  auto check_detected = [&](const Bytes& corrupted, const char* what) {
    ++trials;
    AuditVerifyReport report =
        AuditJournal::Verify(corrupted, &head, kRecords);
    if (!report.ok) {
      ++detected;
    } else {
      ADD_FAILURE() << what << " went undetected";
    }
  };

  const ParsedStream stream = ParseStream(exported);
  for (int trial = 0; trial < 40; ++trial) {
    // Truncation: drop a random-length tail of items.
    {
      ParsedStream t = stream;
      size_t keep = rng.NextBelow(stream.entries.size());
      t.entries.resize(keep);
      check_detected(RebuildStream(t), "truncation");
    }
    // Reordering: swap two distinct items.
    {
      ParsedStream t = stream;
      size_t a = rng.NextBelow(t.entries.size());
      size_t b = rng.NextBelow(t.entries.size());
      if (a == b) b = (b + 1) % t.entries.size();
      std::swap(t.entries[a], t.entries[b]);
      check_detected(RebuildStream(t), "reordering");
    }
    // Bit-flip: one random bit anywhere in the raw stream.
    {
      Bytes t = exported;
      size_t pos = rng.NextBelow(t.size());
      t[pos] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      check_detected(t, "bit-flip");
    }
    // Record deletion from the middle (indices become discontiguous).
    {
      ParsedStream t = stream;
      size_t victim = rng.NextBelow(t.entries.size());
      t.entries.erase(t.entries.begin() + victim);
      check_detected(RebuildStream(t), "mid-stream deletion");
    }
  }
  EXPECT_EQ(detected, trials) << "detection rate "
                              << (100.0 * detected / trials) << "%";
}

}  // namespace
}  // namespace tc::obs
