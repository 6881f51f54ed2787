#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>

#include "tc/common/codec.h"
#include "tc/crypto/sha256.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"
#include "tc/tee/tee.h"
#include "tc/testing/fault_injection.h"

namespace tc::storage {
namespace {

FlashGeometry SmallGeometry() {
  FlashGeometry geo;
  geo.page_size = 512;
  geo.pages_per_block = 8;
  geo.block_count = 32;
  return geo;
}

TEST(FlashDeviceTest, EraseProgramReadCycle) {
  FlashDevice dev(SmallGeometry());
  Bytes data(512, 0xab);
  EXPECT_TRUE(dev.ProgramPage(3, data).ok());
  EXPECT_EQ(*dev.ReadPage(3), data);
  EXPECT_TRUE(dev.IsPageProgrammed(3));
  EXPECT_FALSE(dev.IsPageProgrammed(4));
}

TEST(FlashDeviceTest, ErasedPageReadsAllOnes) {
  FlashDevice dev(SmallGeometry());
  EXPECT_EQ(*dev.ReadPage(0), Bytes(512, 0xff));
}

TEST(FlashDeviceTest, OverwriteForbiddenUntilErase) {
  FlashDevice dev(SmallGeometry());
  Bytes data(512, 1);
  ASSERT_TRUE(dev.ProgramPage(0, data).ok());
  EXPECT_EQ(dev.ProgramPage(0, data).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_TRUE(dev.ProgramPage(0, data).ok());
  EXPECT_EQ(dev.BlockWear(0), 1u);
}

TEST(FlashDeviceTest, BoundsChecks) {
  FlashDevice dev(SmallGeometry());
  EXPECT_FALSE(dev.ReadPage(8 * 32).ok());
  EXPECT_FALSE(dev.ProgramPage(8 * 32, Bytes(512)).ok());
  EXPECT_FALSE(dev.EraseBlock(32).ok());
  EXPECT_FALSE(dev.ProgramPage(0, Bytes(100)).ok());  // Wrong size.
}

TEST(FlashDeviceTest, RejectedOpsDoNotAdvanceStatsOrTime) {
  FlashDevice dev(SmallGeometry());
  ASSERT_TRUE(dev.ProgramPage(0, Bytes(512, 1)).ok());
  FlashStats before = dev.stats();
  // Out-of-range, wrong size and forbidden overwrite: the chip refuses
  // them before doing any work.
  EXPECT_FALSE(dev.ReadPage(8 * 32).ok());
  EXPECT_FALSE(dev.ProgramPage(8 * 32, Bytes(512)).ok());
  EXPECT_FALSE(dev.ProgramPage(1, Bytes(100)).ok());
  EXPECT_FALSE(dev.ProgramPage(0, Bytes(512, 2)).ok());
  EXPECT_FALSE(dev.EraseBlock(32).ok());
  EXPECT_EQ(dev.stats().page_reads, before.page_reads);
  EXPECT_EQ(dev.stats().page_programs, before.page_programs);
  EXPECT_EQ(dev.stats().block_erases, before.block_erases);
  EXPECT_EQ(dev.stats().simulated_time_us, before.simulated_time_us);
  EXPECT_EQ(dev.BlockWear(0), 0u);
}

TEST(FaultyFlashDeviceTest, TornProgramLeavesPageObservablyPartial) {
  tc::testing::FaultPlan plan;
  plan.seed = 7;
  plan.power_loss_after_write_ops = 1;
  plan.torn = tc::testing::TornWriteMode::kPrefix;
  tc::testing::FaultyFlashDevice dev(SmallGeometry(), plan);
  Bytes data(512, 0xab);
  EXPECT_EQ(dev.ProgramPage(3, data).code(), StatusCode::kIOError);
  EXPECT_TRUE(dev.powered_off());
  EXPECT_EQ(dev.ReadPage(0).status().code(), StatusCode::kUnavailable);
  dev.PowerOn();
  // The page is neither untouched (all 0xFF) nor fully written: a real
  // torn write, a prefix of the data followed by erased bytes.
  ASSERT_TRUE(dev.IsPageProgrammed(3));
  Bytes on_flash = *dev.ReadPage(3);
  EXPECT_NE(on_flash, data);
  EXPECT_NE(on_flash, Bytes(512, 0xff));
  EXPECT_EQ(on_flash[0], 0xab);
  EXPECT_EQ(on_flash[511], 0xff);
  // The interrupted program still spent its time.
  EXPECT_EQ(dev.stats().page_programs, 1u);
}

TEST(FaultyFlashDeviceTest, InvalidOpsDoNotConsumeScheduledFaults) {
  tc::testing::FaultPlan plan;
  plan.power_loss_after_write_ops = 1;
  tc::testing::FaultyFlashDevice dev(SmallGeometry(), plan);
  // Invalid operations are rejected by validation and must not advance
  // the write-op counter, or crash-point numbering would drift.
  EXPECT_FALSE(dev.ProgramPage(8 * 32, Bytes(512)).ok());
  EXPECT_FALSE(dev.ProgramPage(0, Bytes(3)).ok());
  EXPECT_EQ(dev.write_ops_seen(), 0u);
  EXPECT_FALSE(dev.powered_off());
  EXPECT_EQ(dev.ProgramPage(0, Bytes(512, 1)).code(), StatusCode::kIOError);
  EXPECT_TRUE(dev.powered_off());
}

TEST(FlashDeviceTest, StatsAccumulate) {
  FlashDevice dev(SmallGeometry());
  (void)dev.ProgramPage(0, Bytes(512, 0));
  (void)dev.ReadPage(0);
  (void)dev.EraseBlock(0);
  EXPECT_EQ(dev.stats().page_programs, 1u);
  EXPECT_EQ(dev.stats().page_reads, 1u);
  EXPECT_EQ(dev.stats().block_erases, 1u);
  EXPECT_GT(dev.stats().simulated_time_us, 0u);
}

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<FlashDevice>(SmallGeometry());
    auto store = LogStore::Open(device_.get(), &plain_, LogStoreOptions{});
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  void Reopen() {
    store_.reset();
    auto store = LogStore::Open(device_.get(), &plain_, LogStoreOptions{});
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  std::unique_ptr<FlashDevice> device_;
  PlainPageTransform plain_;
  std::unique_ptr<LogStore> store_;
};

TEST_F(LogStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(store_->Put("alpha", ToBytes("1")).ok());
  ASSERT_TRUE(store_->Put("beta", ToBytes("2")).ok());
  EXPECT_EQ(*store_->Get("alpha"), ToBytes("1"));
  EXPECT_EQ(*store_->Get("beta"), ToBytes("2"));
  EXPECT_TRUE(store_->Get("gamma").status().IsNotFound());
}

TEST_F(LogStoreTest, OverwriteReturnsLatest) {
  ASSERT_TRUE(store_->Put("k", ToBytes("v1")).ok());
  ASSERT_TRUE(store_->Put("k", ToBytes("v2")).ok());
  EXPECT_EQ(*store_->Get("k"), ToBytes("v2"));
  ASSERT_TRUE(store_->Flush().ok());
  ASSERT_TRUE(store_->Put("k", ToBytes("v3")).ok());
  EXPECT_EQ(*store_->Get("k"), ToBytes("v3"));
}

TEST_F(LogStoreTest, DeleteHidesKey) {
  ASSERT_TRUE(store_->Put("k", ToBytes("v")).ok());
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Get("k").status().IsNotFound());
}

TEST_F(LogStoreTest, RecoveryRestoresState) {
  ASSERT_TRUE(store_->Put("persist-1", ToBytes("a")).ok());
  ASSERT_TRUE(store_->Put("persist-2", ToBytes("b")).ok());
  ASSERT_TRUE(store_->Put("persist-1", ToBytes("a2")).ok());
  ASSERT_TRUE(store_->Delete("persist-2").ok());
  ASSERT_TRUE(store_->Flush().ok());
  Reopen();
  EXPECT_EQ(*store_->Get("persist-1"), ToBytes("a2"));
  EXPECT_TRUE(store_->Get("persist-2").status().IsNotFound());
  EXPECT_EQ(*store_->CountLive(), 1u);
}

TEST_F(LogStoreTest, UnflushedWritesAreLostOnReopenFlushedSurvive) {
  ASSERT_TRUE(store_->Put("durable", ToBytes("yes")).ok());
  ASSERT_TRUE(store_->Flush().ok());
  ASSERT_TRUE(store_->Put("volatile", ToBytes("no")).ok());
  Reopen();  // Simulated power loss without flush.
  EXPECT_EQ(*store_->Get("durable"), ToBytes("yes"));
  EXPECT_TRUE(store_->Get("volatile").status().IsNotFound());
}

TEST_F(LogStoreTest, ScanAllSeesLatestLiveVersions) {
  ASSERT_TRUE(store_->Put("a", ToBytes("1")).ok());
  ASSERT_TRUE(store_->Put("b", ToBytes("2")).ok());
  ASSERT_TRUE(store_->Put("a", ToBytes("3")).ok());
  ASSERT_TRUE(store_->Delete("b").ok());
  ASSERT_TRUE(store_->Put("c", ToBytes("4")).ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(store_
                  ->ScanAll([&](const std::string& k, const Bytes& v) {
                    seen[k] = ToString(v);
                  })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["a"], "3");
  EXPECT_EQ(seen["c"], "4");
}

TEST_F(LogStoreTest, GcReclaimsSpaceUnderChurn) {
  // Keep overwriting a small working set until well past device capacity;
  // without GC this would exhaust the 32-block device.
  Bytes value(100, 0x42);
  for (int round = 0; round < 150; ++round) {
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(store_->Put("key-" + std::to_string(k), value).ok())
          << "round " << round << " key " << k;
    }
  }
  EXPECT_GT(store_->stats().gc_runs, 0u);
  EXPECT_EQ(*store_->CountLive(), 20u);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(*store_->Get("key-" + std::to_string(k)), value);
  }
  EXPECT_GT(store_->WriteAmplification(), 1.0);
}

TEST_F(LogStoreTest, CompactReclaimsTombstones) {
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(store_->Put("k" + std::to_string(k), Bytes(50, 1)).ok());
  }
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(store_->Delete("k" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(store_->CompactAll().ok());
  EXPECT_EQ(*store_->CountLive(), 10u);
  Reopen();
  EXPECT_EQ(*store_->CountLive(), 10u);
  for (int k = 40; k < 50; ++k) {
    EXPECT_TRUE(store_->Get("k" + std::to_string(k)).ok());
  }
  EXPECT_TRUE(store_->Get("k0").status().IsNotFound());
}

TEST_F(LogStoreTest, RecordTooLargeRejected) {
  Bytes huge(1000, 1);  // Page payload is 512.
  EXPECT_EQ(store_->Put("big", huge).code(), StatusCode::kInvalidArgument);
}

TEST_F(LogStoreTest, EmptyKeyRejected) {
  EXPECT_FALSE(store_->Put("", ToBytes("x")).ok());
  EXPECT_FALSE(store_->Delete("").ok());
}

TEST(LogStoreRamBudgetTest, TinyBudgetFallsBackToScans) {
  FlashDevice device(SmallGeometry());
  PlainPageTransform plain;
  LogStoreOptions options;
  options.ram_budget_bytes = 700;  // Fits ~10 index entries.
  auto store = LogStore::Open(&device, &plain, options);
  ASSERT_TRUE(store.ok());
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(
        (*store)->Put("key-" + std::to_string(k), ToBytes("v")).ok());
  }
  EXPECT_FALSE((*store)->index_complete());
  EXPECT_GT((*store)->stats().index_insertions_dropped, 0u);
  // Every key still readable (correctness survives the RAM cliff).
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(*(*store)->Get("key-" + std::to_string(k)), ToBytes("v"))
        << k;
  }
  EXPECT_GT((*store)->stats().full_scans, 0u);
  EXPECT_EQ(*(*store)->CountLive(), 50u);
}

TEST(EncryptedStoreTest, FlashImageIsCiphertextAndTamperEvident) {
  tee::TrustedExecutionEnvironment tee("store-owner",
                                       tee::DeviceClass::kHomeGateway);
  ASSERT_TRUE(tee.keystore().GenerateKey("storage-root").ok());
  FlashDevice device(SmallGeometry());
  EncryptedPageTransform transform(&tee, "storage-root");
  auto store = LogStore::Open(&device, &transform, LogStoreOptions{});
  ASSERT_TRUE(store.ok());

  Bytes secret = ToBytes("1Hz power trace reveals the kettle");
  ASSERT_TRUE((*store)->Put("reading", secret).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  // Raw flash never contains the plaintext.
  bool plaintext_on_flash = false;
  for (size_t page = 0; page < device.geometry().total_pages(); ++page) {
    if (!device.IsPageProgrammed(page)) continue;
    Bytes raw = *device.ReadPage(page);
    std::string raw_str(raw.begin(), raw.end());
    if (raw_str.find("kettle") != std::string::npos) plaintext_on_flash = true;
  }
  EXPECT_FALSE(plaintext_on_flash);
  EXPECT_EQ(*(*store)->Get("reading"), secret);

  // Recovery through the same TEE key works.
  store->reset();
  auto reopened = LogStore::Open(&device, &transform, LogStoreOptions{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("reading"), secret);
}

TEST(LogStoreHostileFlashTest, PageRecordCountBeyondThePageIsCorruption) {
  // A page whose checksum is valid but whose record count claims 2^40
  // records: recovery refuses the count before it sizes an allocation,
  // and Open fails with the decode error.
  const FlashGeometry geo = SmallGeometry();
  BinaryWriter body;
  body.PutVarint(uint64_t{1} << 40);
  Bytes body_bytes = body.Take();
  body_bytes.resize(geo.page_size - 8, 0);
  uint32_t checksum = 2166136261u;  // FNV-1a over the body, as LogStore.
  for (uint8_t b : body_bytes) {
    checksum ^= b;
    checksum *= 16777619u;
  }
  BinaryWriter page;
  page.PutU32(0x54434c47);  // LogStore page magic "TCLG".
  page.PutU32(checksum);
  page.PutRaw(body_bytes);
  FlashDevice device(geo);
  ASSERT_TRUE(device.ProgramPage(0, page.Take()).ok());
  PlainPageTransform plain;
  auto opened = LogStore::Open(&device, &plain, LogStoreOptions{});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

TEST(EncryptedStoreTest, WrongKeyCannotOpen) {
  tee::TrustedExecutionEnvironment owner("owner-dev",
                                         tee::DeviceClass::kHomeGateway);
  tee::TrustedExecutionEnvironment thief("thief-dev",
                                         tee::DeviceClass::kHomeGateway);
  ASSERT_TRUE(owner.keystore().GenerateKey("root").ok());
  ASSERT_TRUE(thief.keystore().GenerateKey("root").ok());

  FlashDevice device(SmallGeometry());
  {
    EncryptedPageTransform transform(&owner, "root");
    auto store = LogStore::Open(&device, &transform, LogStoreOptions{});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k", ToBytes("v")).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // The thief steals the flash chip but has a different TEE key.
  EncryptedPageTransform thief_transform(&thief, "root");
  auto stolen = LogStore::Open(&device, &thief_transform, LogStoreOptions{});
  EXPECT_FALSE(stolen.ok());
}

TEST(EncryptedStoreTest, MismatchedKeyFailsEvenWithTornTolerance) {
  tee::TrustedExecutionEnvironment owner("owner-dev",
                                         tee::DeviceClass::kHomeGateway);
  tee::TrustedExecutionEnvironment thief("thief-dev",
                                         tee::DeviceClass::kHomeGateway);
  ASSERT_TRUE(owner.keystore().GenerateKey("root").ok());
  ASSERT_TRUE(thief.keystore().GenerateKey("root").ok());

  FlashDevice device(SmallGeometry());
  {
    EncryptedPageTransform transform(&owner, "root");
    auto store = LogStore::Open(&device, &transform, LogStoreOptions{});
    ASSERT_TRUE(store.ok());
    // Enough data that the image spans well past any torn-page allowance.
    for (int k = 0; k < 80; ++k) {
      ASSERT_TRUE(
          (*store)->Put("k" + std::to_string(k), Bytes(100, 0x5a)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Torn-page tolerance must not let a wrong-key open masquerade as an
  // empty-but-healthy store: every page is undecodable, which is data
  // loss, not crash residue.
  EncryptedPageTransform thief_transform(&thief, "root");
  LogStoreOptions tolerant;
  tolerant.max_recovery_skips = SmallGeometry().pages_per_block;
  auto stolen = LogStore::Open(&device, &thief_transform, tolerant);
  ASSERT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.status().code(), StatusCode::kDataLoss);
}

class MidGcCrashTest : public ::testing::Test {
 protected:
  // Small device: ~5 pages of live data per round over 12 blocks, so the
  // churn forces garbage collection within a few rounds.
  static FlashGeometry GcGeometry() {
    FlashGeometry geo;
    geo.page_size = 512;
    geo.pages_per_block = 4;
    geo.block_count = 12;
    return geo;
  }

  // Churns overlapping keys until GC erases blocks, with a power loss
  // scheduled at write-op `crash_at` (0 = none). Returns the device.
  std::unique_ptr<tc::testing::FaultyFlashDevice> RunWorkload(
      uint64_t crash_at, bool* crashed) {
    tc::testing::FaultPlan plan;
    plan.seed = 5;
    plan.power_loss_after_write_ops = crash_at;
    plan.torn = tc::testing::TornWriteMode::kPrefix;
    auto dev = std::make_unique<tc::testing::FaultyFlashDevice>(
        GcGeometry(), plan);
    auto store = LogStore::Open(dev.get(), &plain_, LogStoreOptions{});
    if (!store.ok()) {
      *crashed = true;
      return dev;
    }
    *crashed = false;
    Bytes value(100, 0x42);
    for (int round = 0; round < 40 && !*crashed; ++round) {
      for (int k = 0; k < 20; ++k) {
        Status s = (*store)->Put("key-" + std::to_string(k), value);
        if (!s.ok()) {
          *crashed = true;
          break;
        }
      }
    }
    if (!*crashed) EXPECT_TRUE((*store)->Flush().ok());
    return dev;
  }

  PlainPageTransform plain_;
};

TEST_F(MidGcCrashTest, ReopenAfterCrashDuringGcErase) {
  // Find where the GC erases land, then aim a power loss exactly at the
  // first one, and at the flush-out program just before it.
  bool crashed = false;
  auto probe = RunWorkload(0, &crashed);
  ASSERT_FALSE(crashed);
  ASSERT_FALSE(probe->erase_op_ordinals().empty());
  uint64_t first_erase = probe->erase_op_ordinals().front();

  for (uint64_t crash_at : {first_erase, first_erase - 1}) {
    auto dev = RunWorkload(crash_at, &crashed);
    ASSERT_TRUE(crashed) << "power loss at op " << crash_at;
    dev->PowerOn();
    dev->SetPlan(tc::testing::FaultPlan{});
    LogStoreOptions tolerant;
    tolerant.max_recovery_skips = GcGeometry().pages_per_block;
    auto reopened = LogStore::Open(dev.get(), &plain_, tolerant);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_LE((*reopened)->stats().recovery_pages_skipped, 1u);
    // Acknowledged state: every key was flushed (page auto-flush + GC
    // relocation) many rounds before the crash; all 20 must be present
    // with the (only ever written) value.
    Bytes value(100, 0x42);
    for (int k = 0; k < 20; ++k) {
      auto got = (*reopened)->Get("key-" + std::to_string(k));
      ASSERT_TRUE(got.ok()) << "key-" << k << " after crash at " << crash_at;
      EXPECT_EQ(*got, value);
    }
    // The store stays writable after the interrupted GC.
    ASSERT_TRUE((*reopened)->Put("after-crash", ToBytes("ok")).ok());
    ASSERT_TRUE((*reopened)->Flush().ok());
    EXPECT_EQ(*(*reopened)->Get("after-crash"), ToBytes("ok"));
  }
}

// A store must keep reading the flash images earlier builds wrote, and
// the device counts are what the experiments report. So one deterministic
// script over the plaintext transform must program the same bytes to the
// same pages in the same order, erase the same blocks and count the same
// work. The device logs every program (page number and SHA-256 of the
// page) and every erase; the pins hold the SHA-256 of that log plus
// LogStoreStats and FlashStats at three checkpoints. They cover the page
// format, the flush policy, GC victim choice and the dead counting that
// drives it, CompactAll and recovery, with a complete index and with a
// RAM budget small enough to force log scans.
class RecordingFlashDevice : public FlashDevice {
 public:
  using FlashDevice::FlashDevice;

  Status ProgramPage(size_t page_no, const Bytes& data) override {
    TC_RETURN_IF_ERROR(FlashDevice::ProgramPage(page_no, data));
    log_ += "P" + std::to_string(page_no) + " " +
            HexEncode(crypto::Sha256Hash(data)) + "\n";
    return Status::OK();
  }
  Status EraseBlock(size_t block_no) override {
    TC_RETURN_IF_ERROR(FlashDevice::EraseBlock(block_no));
    log_ += "E" + std::to_string(block_no) + "\n";
    return Status::OK();
  }

  const std::string& log() const { return log_; }

 private:
  std::string log_;
};

std::string Fingerprint(const LogStore& store,
                        const RecordingFlashDevice& device) {
  const LogStoreStats& s = store.stats();
  const FlashStats f = device.stats();
  std::ostringstream out;
  out << "records=" << s.records_appended.load()
      << " user_bytes=" << s.user_bytes_appended.load()
      << " gc=" << s.gc_runs.load() << "/" << s.gc_records_moved.load()
      << " hits=" << s.index_hits.load() << " scans=" << s.full_scans.load()
      << " dropped=" << s.index_insertions_dropped.load()
      << " skipped=" << s.recovery_pages_skipped.load() << "/"
      << s.scan_pages_skipped.load() << "/" << s.pages_abandoned.load()
      << " flash=" << f.page_reads << "/" << f.page_programs << "/"
      << f.block_erases
      << " log=" << HexEncode(crypto::Sha256Hash(ToBytes(device.log())));
  return out.str();
}

struct ImagePins {
  size_t ram_budget_bytes;
  size_t block_count;
  const char* after_churn;
  const char* after_compact;
  const char* after_reopen;
};

constexpr ImagePins kImagePins[] = {
    {1 << 20, 12,
     "records=480 user_bytes=48101 gc=20/35 hits=29 scans=0 dropped=0 "
     "skipped=0/0/0 flash=97/119/20 log="
     "526e4859d1b542ff2d2d17c3d583752f9ba5cf0b8965f53fe0bdecd3b1cf5712",
     "records=491 user_bytes=48727 gc=20/35 hits=29 scans=0 dropped=0 "
     "skipped=0/0/0 flash=136/127/30 log="
     "8097d1cc842bcee408b4005f6d289401f170a078cb1020b828895e9bdb1120c1",
     "records=0 user_bytes=0 gc=0/0 hits=27 scans=0 dropped=0 "
     "skipped=0/0/0 flash=170/127/30 log="
     "8097d1cc842bcee408b4005f6d289401f170a078cb1020b828895e9bdb1120c1"},
    // About ten index entries: most keys are served by log scans, and GC
    // keeps every record it cannot prove dead.
    {700, 20,
     "records=480 user_bytes=48101 gc=26/278 hits=10 scans=19 dropped=528 "
     "skipped=0/0/0 flash=1478/176/26 log="
     "ccb6fe104fb804bedb1c8ccc6653e8fa67dc5a5855d05ad47108d566ed88e710",
     "records=491 user_bytes=48727 gc=26/278 hits=10 scans=19 dropped=548 "
     "skipped=0/0/0 flash=1550/184/44 log="
     "03e9c323ee0d2d6867b78cce13f9f32175c57a81bc54120c1381f288ea8dbfb0",
     "records=0 user_bytes=0 gc=0/0 hits=10 scans=19 dropped=22 "
     "skipped=0/0/0 flash=1728/184/44 log="
     "03e9c323ee0d2d6867b78cce13f9f32175c57a81bc54120c1381f288ea8dbfb0"},
};

TEST(LogStoreImageTest, ScriptedWorkloadWritesThePinnedFlashImage) {
  auto key_of = [](int k) { return "key-" + std::to_string(k); };
  auto value_of = [](int op, size_t size) {
    Bytes v(size);
    for (size_t i = 0; i < size; ++i) v[i] = static_cast<uint8_t>(op * 31 + i);
    return v;
  };
  auto expect_reads = [&](LogStore& store,
                          const std::map<std::string, Bytes>& model) {
    for (int k = 0; k < 29; ++k) {
      auto got = store.Get(key_of(k));
      auto want = model.find(key_of(k));
      if (want == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key_of(k);
      } else {
        ASSERT_TRUE(got.ok()) << key_of(k) << ": " << got.status().ToString();
        EXPECT_EQ(*got, want->second) << key_of(k);
      }
    }
  };

  for (const ImagePins& pins : kImagePins) {
    SCOPED_TRACE("ram_budget_bytes=" + std::to_string(pins.ram_budget_bytes));
    FlashGeometry geo;
    geo.page_size = 512;
    geo.pages_per_block = 4;
    geo.block_count = pins.block_count;
    RecordingFlashDevice device(geo);
    PlainPageTransform plain;
    LogStoreOptions options;
    options.ram_budget_bytes = pins.ram_budget_bytes;
    auto opened = LogStore::Open(&device, &plain, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<LogStore> store = std::move(*opened);
    const size_t max_value = store->MaxValueSize();

    // Mixed sizes from empty to a full record, overwrites of 23 keys and a
    // delete every fifth op (some of them of keys never written): the
    // device fills several times over, so GC runs throughout.
    std::map<std::string, Bytes> model;
    for (int op = 0; op < 400; ++op) {
      std::string key = key_of((op * 7) % 23);
      size_t size = op % 50 == 0 ? max_value : (op * 37) % 190;
      Bytes value = value_of(op, size);
      Status put = store->Put(key, value);
      ASSERT_TRUE(put.ok()) << op << ": " << put.ToString();
      model[key] = value;
      if (op % 5 == 4) {
        std::string victim = key_of((op * 3) % 29);
        ASSERT_TRUE(store->Delete(victim).ok()) << op;
        model.erase(victim);
      }
    }
    expect_reads(*store, model);
    EXPECT_EQ(Fingerprint(*store, device), pins.after_churn);

    ASSERT_TRUE(store->CompactAll().ok());
    for (int op = 400; op < 410; ++op) {
      std::string key = key_of(op % 29);
      Bytes value = value_of(op, static_cast<size_t>(op % 120));
      ASSERT_TRUE(store->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE(store->Delete(key_of(3)).ok());
    model.erase(key_of(3));
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(Fingerprint(*store, device), pins.after_compact);

    store.reset();
    opened = LogStore::Open(&device, &plain, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store = std::move(*opened);
    expect_reads(*store, model);
    EXPECT_EQ(*store->CountLive(), model.size());
    EXPECT_EQ(Fingerprint(*store, device), pins.after_reopen);
  }
}

TEST(LogStoreFaultTest, TransientProgramFailureIsRetryable) {
  tc::testing::FaultPlan plan;
  plan.seed = 9;
  plan.failing_write_ops = {1};  // First program fails, device stays up.
  plan.torn = tc::testing::TornWriteMode::kPrefix;
  tc::testing::FaultyFlashDevice dev(SmallGeometry(), plan);
  PlainPageTransform plain;
  auto store = LogStore::Open(&dev, &plain, LogStoreOptions{});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", ToBytes("v")).ok());
  EXPECT_EQ((*store)->Flush().code(), StatusCode::kIOError);
  // The records stayed buffered; the retry skips the torn page and lands
  // on the next one.
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->stats().pages_abandoned, 1u);
  EXPECT_EQ(*(*store)->Get("k"), ToBytes("v"));
  // Recovery tolerates the abandoned torn page and sees the data.
  store->reset();
  LogStoreOptions tolerant;
  tolerant.max_recovery_skips = 2;
  auto reopened = LogStore::Open(&dev, &plain, tolerant);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("k"), ToBytes("v"));
  EXPECT_LE((*reopened)->stats().recovery_pages_skipped, 1u);
}

TEST(LogStoreFaultTest, StuckErasedFlashDetectedByParanoidVerify) {
  tc::testing::FaultPlan plan;
  for (size_t b = 0; b < SmallGeometry().block_count; ++b) {
    plan.stuck_erased_blocks.insert(b);
  }
  // Without read-back verification the lost program goes unnoticed until
  // the data silently fails to recover...
  {
    tc::testing::FaultyFlashDevice dev(SmallGeometry(), plan);
    PlainPageTransform plain;
    auto store = LogStore::Open(&dev, &plain, LogStoreOptions{});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k", ToBytes("v")).ok());
    EXPECT_TRUE((*store)->Flush().ok());  // Silent loss.
    store->reset();
    auto reopened = LogStore::Open(&dev, &plain, LogStoreOptions{});
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE((*reopened)->Get("k").status().IsNotFound());
  }
  // ...with it, the store surfaces the failure at write time.
  {
    tc::testing::FaultyFlashDevice dev(SmallGeometry(), plan);
    PlainPageTransform plain;
    LogStoreOptions paranoid;
    paranoid.paranoid_program_verify = true;
    auto store = LogStore::Open(&dev, &plain, paranoid);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k", ToBytes("v")).ok());
    EXPECT_EQ((*store)->Flush().code(), StatusCode::kIOError);
  }
}

}  // namespace
}  // namespace tc::storage
