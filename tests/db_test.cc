#include <gtest/gtest.h>

#include <memory>

#include "tc/common/codec.h"
#include "tc/db/database.h"
#include "tc/db/query.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"

namespace tc::db {
namespace {

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::FlashGeometry geo;
    geo.page_size = 2048;
    geo.pages_per_block = 16;
    geo.block_count = 128;
    device_ = std::make_unique<storage::FlashDevice>(geo);
    OpenAll();
  }

  void OpenAll() {
    auto store = storage::LogStore::Open(device_.get(), &plain_,
                                         storage::LogStoreOptions{});
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    auto db = Database::Open(store_.get());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  void ReopenAll() {
    ASSERT_TRUE(db_->Flush().ok());
    db_.reset();
    store_.reset();
    OpenAll();
  }

  Schema ReadingsSchema() {
    return *Schema::Create({{"source", ValueType::kString, false},
                            {"time", ValueType::kTimestamp, false},
                            {"watts", ValueType::kInt64, false},
                            {"note", ValueType::kString, true}});
  }

  std::unique_ptr<storage::FlashDevice> device_;
  storage::PlainPageTransform plain_;
  std::unique_ptr<storage::LogStore> store_;
  std::unique_ptr<Database> db_;
};

TEST_F(DbTest, ValueRoundTripAllTypes) {
  const Bytes buf =
      Encode(Value::Null(), Value::Bool(true), Value::Int64(-7),
             Value::Double(2.5), Value::String("hi"), Value::Blob({1, 2}),
             Value::TimestampVal(123456));
  Value null, flag, count, ratio, text, blob, stamp;
  ASSERT_TRUE(
      Decode(buf, &null, &flag, &count, &ratio, &text, &blob, &stamp).ok());
  EXPECT_TRUE(null.is_null());
  EXPECT_EQ(flag.AsBool(), true);
  EXPECT_EQ(count.AsInt64(), -7);
  EXPECT_EQ(ratio.AsDouble(), 2.5);
  EXPECT_EQ(text.AsString(), "hi");
  EXPECT_EQ(blob.AsBytes(), (Bytes{1, 2}));
  EXPECT_EQ(stamp.AsTimestamp(), 123456);
}

TEST_F(DbTest, ValueCompareSemantics) {
  EXPECT_EQ(*Value::Compare(Value::Int64(3), Value::Double(3.0)), 0);
  EXPECT_LT(*Value::Compare(Value::Int64(2), Value::Double(2.5)), 0);
  EXPECT_GT(*Value::Compare(Value::String("b"), Value::String("a")), 0);
  EXPECT_FALSE(Value::Compare(Value::String("x"), Value::Int64(1)).ok());
}

TEST_F(DbTest, SchemaValidation) {
  Schema schema = ReadingsSchema();
  EXPECT_TRUE(schema
                  .ValidateRow({Value::String("meter"),
                                Value::TimestampVal(0), Value::Int64(120),
                                Value::Null()})
                  .ok());
  // Wrong arity.
  EXPECT_FALSE(schema.ValidateRow({Value::String("meter")}).ok());
  // Null in non-nullable.
  EXPECT_FALSE(schema
                   .ValidateRow({Value::Null(), Value::TimestampVal(0),
                                 Value::Int64(1), Value::Null()})
                   .ok());
  // Type mismatch.
  EXPECT_FALSE(schema
                   .ValidateRow({Value::String("m"), Value::TimestampVal(0),
                                 Value::String("not-int"), Value::Null()})
                   .ok());
}

TEST_F(DbTest, SchemaRejectsBadDefinitions) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({{"a", ValueType::kInt64, false},
                               {"a", ValueType::kString, false}})
                   .ok());
  EXPECT_FALSE(Schema::Create({{"", ValueType::kInt64, false}}).ok());
}

TEST_F(DbTest, TableCrud) {
  auto table = db_->CreateTable("readings", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  auto id = (*table)->Insert({Value::String("meter"), Value::TimestampVal(60),
                              Value::Int64(300), Value::Null()});
  ASSERT_TRUE(id.ok());
  Row row = *(*table)->Get(*id);
  EXPECT_EQ(row.values[2].AsInt64(), 300);

  ASSERT_TRUE((*table)
                  ->Update(*id, {Value::String("meter"),
                                 Value::TimestampVal(60), Value::Int64(350),
                                 Value::String("corrected")})
                  .ok());
  EXPECT_EQ((*table)->Get(*id)->values[2].AsInt64(), 350);

  ASSERT_TRUE((*table)->Delete(*id).ok());
  EXPECT_TRUE((*table)->Get(*id).status().IsNotFound());
  EXPECT_FALSE((*table)->Update(*id, row.values).ok());
}

TEST_F(DbTest, InsertValidatesSchema) {
  auto table = db_->CreateTable("t", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE((*table)->Insert({Value::Int64(1)}).ok());
}

TEST_F(DbTest, CatalogPersistsAcrossReopen) {
  auto table = db_->CreateTable("readings", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::String("meter"),
                              Value::TimestampVal(i * 60),
                              Value::Int64(100 + i), Value::Null()})
                    .ok());
  }
  ReopenAll();
  auto reopened = db_->GetTable("readings");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->row_count(), 10u);
  // Row ids continue after the existing maximum.
  auto new_id = (*reopened)
                    ->Insert({Value::String("meter"), Value::TimestampVal(0),
                              Value::Int64(1), Value::Null()});
  ASSERT_TRUE(new_id.ok());
  EXPECT_EQ(*new_id, 11u);
}

TEST_F(DbTest, DropTableRemovesRowsAndCatalog) {
  auto table = db_->CreateTable("tmp", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)
                  ->Insert({Value::String("m"), Value::TimestampVal(0),
                            Value::Int64(1), Value::Null()})
                  .ok());
  ASSERT_TRUE(db_->DropTable("tmp").ok());
  EXPECT_TRUE(db_->GetTable("tmp").status().IsNotFound());
  ReopenAll();
  EXPECT_TRUE(db_->GetTable("tmp").status().IsNotFound());
}

TEST_F(DbTest, DuplicateAndInvalidTableNames) {
  ASSERT_TRUE(db_->CreateTable("t", ReadingsSchema()).ok());
  EXPECT_EQ(db_->CreateTable("t", ReadingsSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(db_->CreateTable("bad/name", ReadingsSchema()).ok());
  EXPECT_FALSE(db_->CreateTable("", ReadingsSchema()).ok());
}

TEST_F(DbTest, QuerySelectAndAggregates) {
  auto table = db_->CreateTable("readings", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::String(i % 2 ? "meter" : "gps"),
                              Value::TimestampVal(i * 60),
                              Value::Int64(i * 10), Value::Null()})
                    .ok());
  }
  Predicate meter_only;
  meter_only.Where("source", CompareOp::kEq, Value::String("meter"));
  auto rows = QueryEngine::Select(**table, meter_only);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);

  Predicate range = meter_only;
  range.Where("watts", CompareOp::kGe, Value::Int64(500));
  EXPECT_EQ(*QueryEngine::Aggregate(**table, range, AggFunc::kCount, ""), 25);

  EXPECT_DOUBLE_EQ(
      *QueryEngine::Aggregate(**table, Predicate(), AggFunc::kMax, "watts"),
      990.0);
  EXPECT_DOUBLE_EQ(
      *QueryEngine::Aggregate(**table, Predicate(), AggFunc::kMin, "watts"),
      0.0);
  double sum =
      *QueryEngine::Aggregate(**table, Predicate(), AggFunc::kSum, "watts");
  EXPECT_DOUBLE_EQ(sum, 10.0 * (99 * 100) / 2);

  auto by_source = QueryEngine::GroupBy(**table, Predicate(), "source",
                                        AggFunc::kCount, "");
  ASSERT_TRUE(by_source.ok());
  EXPECT_EQ((*by_source)["meter"], 50);
  EXPECT_EQ((*by_source)["gps"], 50);
}

TEST_F(DbTest, QueryEdgeCases) {
  auto table = db_->CreateTable("t", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  // Aggregates over empty tables.
  EXPECT_EQ(*QueryEngine::Aggregate(**table, Predicate(), AggFunc::kCount, ""),
            0);
  EXPECT_EQ(*QueryEngine::Aggregate(**table, Predicate(), AggFunc::kSum,
                                    "watts"),
            0);
  EXPECT_FALSE(
      QueryEngine::Aggregate(**table, Predicate(), AggFunc::kAvg, "watts")
          .ok());
  EXPECT_FALSE(
      QueryEngine::Aggregate(**table, Predicate(), AggFunc::kMin, "watts")
          .ok());
  // Unknown columns fail loudly.
  Predicate bad;
  bad.Where("nope", CompareOp::kEq, Value::Int64(1));
  EXPECT_FALSE(QueryEngine::Select(**table, bad).ok());
}

TEST_F(DbTest, GroupByAllAggregates) {
  auto table = db_->CreateTable("t", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::String(i % 3 == 0 ? "a" : "b"),
                              Value::TimestampVal(i), Value::Int64(i * 10),
                              Value::Null()})
                    .ok());
  }
  auto sum = *QueryEngine::GroupBy(**table, Predicate(), "source",
                                   AggFunc::kSum, "watts");
  EXPECT_DOUBLE_EQ(sum["a"], 0 + 30 + 60 + 90);
  auto avg = *QueryEngine::GroupBy(**table, Predicate(), "source",
                                   AggFunc::kAvg, "watts");
  EXPECT_DOUBLE_EQ(avg["a"], 45.0);
  auto mn = *QueryEngine::GroupBy(**table, Predicate(), "source",
                                  AggFunc::kMin, "watts");
  EXPECT_DOUBLE_EQ(mn["b"], 10.0);
  auto mx = *QueryEngine::GroupBy(**table, Predicate(), "source",
                                  AggFunc::kMax, "watts");
  EXPECT_DOUBLE_EQ(mx["b"], 110.0);
  // Group-by over a non-string column is rejected.
  EXPECT_FALSE(QueryEngine::GroupBy(**table, Predicate(), "watts",
                                    AggFunc::kCount, "")
                   .ok());
}

TEST_F(DbTest, SelectWithLimitStopsEarly) {
  auto table = db_->CreateTable("t", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::String("m"), Value::TimestampVal(i),
                              Value::Int64(i), Value::Null()})
                    .ok());
  }
  auto rows = QueryEngine::Select(**table, Predicate(), /*limit=*/7);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);
}

TEST_F(DbTest, SelectColumnsProjects) {
  auto table = db_->CreateTable("t", ReadingsSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)
                  ->Insert({Value::String("m"), Value::TimestampVal(0),
                            Value::Int64(42), Value::Null()})
                  .ok());
  auto cols =
      QueryEngine::SelectColumns(**table, Predicate(), {"watts", "source"});
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols->size(), 1u);
  EXPECT_EQ((*cols)[0][0].AsInt64(), 42);
  EXPECT_EQ((*cols)[0][1].AsString(), "m");
}

TEST_F(DbTest, TimeSeriesAppendRangeWindow) {
  TimeSeriesStore& ts = db_->timeseries();
  // One simulated hour of 1 Hz power readings.
  for (int i = 0; i < 3600; ++i) {
    ASSERT_TRUE(ts.Append("power", 1000 + i, 200 + (i % 50)).ok());
  }
  ASSERT_TRUE(ts.Flush("power").ok());
  EXPECT_EQ(ts.Count("power"), 3600u);

  auto range = ts.Range("power", 1000, 1100);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 100u);
  EXPECT_EQ((*range)[0].time, 1000);
  EXPECT_EQ((*range)[99].time, 1099);

  auto windows = ts.Windowed("power", 1000, 1000 + 3600, 900);
  ASSERT_TRUE(windows.ok());
  // 3600 s of data spans 5 epoch-aligned 900 s windows (start unaligned).
  EXPECT_EQ(windows->size(), 5u);
  uint64_t total = 0;
  for (const auto& w : *windows) total += w.count;
  EXPECT_EQ(total, 3600u);
  for (const auto& w : *windows) {
    EXPECT_GE(w.min, 200);
    EXPECT_LE(w.max, 249);
    EXPECT_GE(w.mean, 200.0);
    EXPECT_LE(w.mean, 249.0);
  }
}

TEST_F(DbTest, TimeSeriesRejectsOutOfOrder) {
  TimeSeriesStore& ts = db_->timeseries();
  ASSERT_TRUE(ts.Append("s", 100, 1).ok());
  EXPECT_FALSE(ts.Append("s", 99, 1).ok());
  EXPECT_TRUE(ts.Append("s", 100, 2).ok());  // Equal timestamps allowed.
}

TEST_F(DbTest, TimeSeriesSurvivesReopen) {
  TimeSeriesStore& ts = db_->timeseries();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(ts.Append("power", i, 100 + i % 7).ok());
  }
  ReopenAll();
  EXPECT_EQ(db_->timeseries().Count("power"), 2000u);
  auto range = db_->timeseries().Range("power", 500, 600);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 100u);
  EXPECT_EQ((*range)[0].value, 100 + 500 % 7);
  // Appends continue after the last persisted time.
  EXPECT_FALSE(db_->timeseries().Append("power", 0, 1).ok());
  EXPECT_TRUE(db_->timeseries().Append("power", 2000, 1).ok());
}

TEST_F(DbTest, TimeSeriesCompressionIsEffective) {
  TimeSeriesStore& ts = db_->timeseries();
  uint64_t before = store_->stats().user_bytes_appended;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(ts.Append("smooth", i, 500 + (i % 3)).ok());
  }
  ASSERT_TRUE(ts.Flush("smooth").ok());
  uint64_t bytes = store_->stats().user_bytes_appended - before;
  // Raw encoding would be ~16 B/reading; delta encoding should be < 3.
  EXPECT_LT(bytes, 10000u * 3);
}

TEST_F(DbTest, KeywordIndexSearch) {
  KeywordIndex& kw = db_->keywords();
  ASSERT_TRUE(kw.IndexDocument(1, "Photo from Paris, summer 2012").ok());
  ASSERT_TRUE(kw.IndexDocument(2, "Paris electricity bill 2012").ok());
  ASSERT_TRUE(kw.IndexDocument(3, "Medical record: Dr. Martin").ok());

  EXPECT_EQ(*kw.Search("paris"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(*kw.Search("2012"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(*kw.Search("martin"), (std::vector<uint64_t>{3}));
  EXPECT_TRUE(kw.Search("nothing")->empty());
  EXPECT_EQ(*kw.SearchAnd({"paris", "bill"}), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(kw.SearchAnd({"paris", "medical"})->empty());
}

TEST_F(DbTest, KeywordIndexRemove) {
  KeywordIndex& kw = db_->keywords();
  ASSERT_TRUE(kw.IndexDocument(1, "alpha beta").ok());
  ASSERT_TRUE(kw.IndexDocument(2, "alpha gamma").ok());
  ASSERT_TRUE(kw.RemoveDocument(1, "alpha beta").ok());
  EXPECT_EQ(*kw.Search("alpha"), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(kw.Search("beta")->empty());
}

// A count read from bytes that claims 2^40 entries over a few bytes: every
// decoder refuses it with kCorruption before it can size an allocation.
Bytes HugeCountOverFewBytes() {
  BinaryWriter w;
  w.PutVarint(uint64_t{1} << 40);
  w.PutVarint(1);
  w.PutVarint(2);
  return w.Take();
}

TEST(DecoderCountTest, RowValuesRejectCountBeyondBytes) {
  EXPECT_EQ(Table::DecodeRowValues(HugeCountOverFewBytes()).status().code(),
            StatusCode::kCorruption);
}

TEST(DecoderCountTest, TimeSeriesChunkRejectsCountBeyondBytes) {
  EXPECT_EQ(
      TimeSeriesStore::DecodeChunk(HugeCountOverFewBytes()).status().code(),
      StatusCode::kCorruption);
}

TEST(DecoderCountTest, SchemaRejectsCountBeyondBytes) {
  const Bytes hostile = HugeCountOverFewBytes();
  BinaryReader r(hostile);
  EXPECT_EQ(Schema::Decode(r).status().code(), StatusCode::kCorruption);
}

TEST_F(DbTest, KeywordSearchOverHostilePostingsIsCorruption) {
  // A planted k/<term> record whose posting count the bytes cannot hold.
  ASSERT_TRUE(store_->Put("k/paris", HugeCountOverFewBytes()).ok());
  EXPECT_EQ(db_->keywords().Search("paris").status().code(),
            StatusCode::kCorruption);
}

TEST_F(DbTest, KeywordIndexIdempotent) {
  KeywordIndex& kw = db_->keywords();
  ASSERT_TRUE(kw.IndexDocument(5, "dup dup dup").ok());
  ASSERT_TRUE(kw.IndexDocument(5, "dup").ok());
  EXPECT_EQ(*kw.Search("dup"), (std::vector<uint64_t>{5}));
}

}  // namespace
}  // namespace tc::db
