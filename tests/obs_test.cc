// tc::obs — histogram bucket math, percentile extraction, registry
// semantics, trace ring. The concurrency tests here also run under the
// `tsan` preset (scripts/tsan_tests.sh).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tc/obs/flight_recorder.h"
#include "tc/obs/metrics.h"
#include "tc/obs/trace.h"

namespace tc::obs {
namespace {

// ---------------------------------------------------------------- buckets

TEST(HistogramBuckets, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndContinuous) {
  // Bucket ranges must tile the value space: each bucket starts right
  // after the previous one ends, and indices never decrease with value.
  size_t last = Histogram::BucketIndex(0);
  for (uint64_t v = 1; v < 100000; ++v) {
    size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, last) << "index decreased at v=" << v;
    EXPECT_LE(idx - last, 1u) << "index skipped a bucket at v=" << v;
    last = idx;
  }
  for (size_t i = 0; i + 1 < 64; ++i) {
    EXPECT_EQ(Histogram::BucketUpperBound(i) + 1,
              Histogram::BucketLowerBound(i + 1))
        << "gap/overlap between buckets " << i << " and " << i + 1;
  }
}

TEST(HistogramBuckets, EveryValueFallsInsideItsBucket) {
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int shift = 2; shift < 64; ++shift) {
    uint64_t p = 1ull << shift;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  probes.push_back(~0ull);
  for (uint64_t v : probes) {
    size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, Histogram::kBucketCount);
    EXPECT_LE(Histogram::BucketLowerBound(idx), v) << "v=" << v;
    EXPECT_GE(Histogram::BucketUpperBound(idx), v) << "v=" << v;
  }
}

TEST(HistogramBuckets, RelativeErrorBoundedAtQuarter) {
  // From 4 up each octave has 4 linear sub-buckets, so within a bucket
  // (upper - lower) <= lower / 4: reporting the upper bound overstates a
  // value by at most 25%.
  for (uint64_t v : {4ull, 5ull, 100ull, 1000ull, 123456ull, 1ull << 40}) {
    size_t idx = Histogram::BucketIndex(v);
    uint64_t lo = Histogram::BucketLowerBound(idx);
    uint64_t hi = Histogram::BucketUpperBound(idx);
    EXPECT_LE(hi - lo, lo / 4) << "v=" << v;
  }
}

// ------------------------------------------------------------ percentiles

TEST(HistogramPercentiles, EmptyHistogramReportsZero) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(HistogramPercentiles, SingleValueIsEveryQuantile) {
  Histogram h;
  h.Record(700);
  HistogramSnapshot s = h.Snapshot();
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    // Bucket upper bound, clamped by the exactly-tracked max.
    EXPECT_EQ(s.Percentile(p), 700.0) << "p=" << p;
  }
  EXPECT_EQ(s.max, 700u);
  EXPECT_EQ(s.sum, 700u);
}

TEST(HistogramPercentiles, UniformDistributionWithinErrorBound) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_EQ(s.sum, 10000ull * 10001 / 2);
  EXPECT_EQ(s.max, 10000u);
  // Conservative estimate: never below the true quantile, at most 25% over.
  struct { double p; double exact; } cases[] = {
      {0.50, 5000}, {0.90, 9000}, {0.95, 9500}, {0.99, 9900}};
  for (const auto& c : cases) {
    double est = s.Percentile(c.p);
    EXPECT_GE(est, c.exact) << "p=" << c.p;
    EXPECT_LE(est, c.exact * 1.25) << "p=" << c.p;
  }
  EXPECT_EQ(s.Percentile(1.0), 10000.0);  // max is exact.
}

TEST(HistogramPercentiles, BimodalDistribution) {
  // 90 fast ops at 10us, 10 slow ops at 50000us: p50 must sit in the fast
  // mode, p95+ in the slow mode — the shape percentiles exist to expose.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(50000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_GE(s.Percentile(0.50), 10.0);
  EXPECT_LE(s.Percentile(0.50), 12.5);
  EXPECT_GE(s.Percentile(0.95), 50000.0);
  EXPECT_LE(s.Percentile(0.95), 50000.0 * 1.25);
}

TEST(HistogramPercentiles, MinusScopesAMeasuredRegion) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(5);
  HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 50; ++i) h.Record(1000);
  HistogramSnapshot delta = h.Snapshot().Minus(before);
  EXPECT_EQ(delta.count, 50u);
  EXPECT_EQ(delta.sum, 50u * 1000);
  // All 50 new samples are 1000: every quantile of the delta is ~1000,
  // unpolluted by the 100 old 5us samples.
  EXPECT_GE(delta.Percentile(0.5), 1000.0);
  EXPECT_LE(delta.Percentile(0.5), 1250.0);
}

// ------------------------------------------------------------ concurrency

TEST(ObsConcurrency, CountersAreExactUnderContention) {
  Counter c;
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kOps = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        c.Increment();
        g.Add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), uint64_t(kThreads) * kOps);
  EXPECT_EQ(g.Value(), int64_t(kThreads) * kOps);
}

TEST(ObsConcurrency, HistogramCountSumMaxExactUnderContention) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kOps; ++i) {
        h.Record(static_cast<uint64_t>(t * kOps + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot s = h.Snapshot();
  uint64_t n = uint64_t(kThreads) * kOps;
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(s.sum, n * (n - 1) / 2);
  EXPECT_EQ(s.max, n - 1);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
}

TEST(ObsConcurrency, RegistryLookupRacesWithRecording) {
  // Half the threads resolve handles (shared/unique registry lock), half
  // hammer already-resolved metrics; TSan is the real judge here.
  MetricRegistry registry;
  Counter& hot = registry.GetCounter("hot");
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 200; ++i) {
        registry.GetCounter("c" + std::to_string(t) + "." +
                            std::to_string(i)).Increment();
        registry.GetHistogram("h" + std::to_string(i % 7)).Record(i);
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hot, &registry, &stop] {
      // do-while: on a loaded 1-core host this thread may not get scheduled
      // until after `stop` is set; at least one iteration keeps the
      // hot-counter assertion below meaningful.
      do {
        hot.Increment();
        registry.Snapshot();
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int t = 0; t < 4; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(registry.GetCounter("c0.0").Value(), 1u);
  EXPECT_GT(hot.Value(), 0u);
}

// ---------------------------------------------------------------- registry

TEST(MetricRegistryTest, SameNameReturnsSameMetric) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  // Namespaces are independent: a gauge named "x" is a different metric.
  registry.GetGauge("x").Set(42);
  EXPECT_EQ(a.Value(), 1u);
}

TEST(MetricRegistryTest, SnapshotAndJsonExport) {
  MetricRegistry registry;
  registry.GetCounter("ops").Increment(3);
  registry.GetGauge("depth").Set(-2);
  Histogram& h = registry.GetHistogram("lat_us");
  h.Record(100);
  h.Record(200);

  RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("ops"), 3u);
  EXPECT_EQ(snap.gauges.at("depth"), -2);
  EXPECT_EQ(snap.histograms.at("lat_us").count, 2u);

  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"ops\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST(MetricRegistryTest, ResetAllZeroesButKeepsReferencesValid) {
  MetricRegistry registry;
  Counter& c = registry.GetCounter("c");
  c.Increment(9);
  Histogram& h = registry.GetHistogram("h");
  h.Record(1);
  registry.ResetAll();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);
  c.Increment();  // The old reference still points at the live metric.
  EXPECT_EQ(registry.GetCounter("c").Value(), 1u);
}

TEST(MetricRegistryTest, DisabledModeDropsWrites) {
  MetricRegistry registry;
  Counter& c = registry.GetCounter("c");
  Histogram& h = registry.GetHistogram("h");
  Gauge& g = registry.GetGauge("g");
  SetEnabled(false);
  c.Increment();
  h.Record(5);
  g.Set(5);
  SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);
  EXPECT_EQ(g.Value(), 0);
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
}

TEST(ScopedTimerTest, RecordsOnceAndNullIsNoop) {
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.Snapshot().count, 1u);
  { ScopedTimer t(nullptr); }  // Must not crash.
}

// ------------------------------------------------------------------ trace

TEST(TraceRingTest, WrapsKeepingMostRecent) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.Emit(TraceKind::kInstant, "test", "ev" + std::to_string(i));
  }
  EXPECT_EQ(ring.total_emitted(), 6u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first and contiguous: events 2..5 survived.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(std::string(events[i].name), "ev" + std::to_string(i + 2));
    if (i > 0) EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(TraceRingTest, TruncatesLongStringsSafely) {
  TraceRing ring(2);
  std::string long_str(200, 'x');
  ring.Emit(TraceKind::kInstant, long_str, long_str, long_str);
  TraceEvent e = ring.Snapshot().at(0);
  EXPECT_EQ(std::string(e.component),
            std::string(sizeof(e.component) - 1, 'x'));
  EXPECT_EQ(std::string(e.name), std::string(sizeof(e.name) - 1, 'x'));
  EXPECT_EQ(std::string(e.detail), std::string(sizeof(e.detail) - 1, 'x'));
}

TEST(TraceRingTest, SpanEmitsBeginAndEndWithDuration) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  { TraceSpan span("test", "op", "detail"); }
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceKind::kBegin);
  EXPECT_EQ(events[1].kind, TraceKind::kEnd);
  EXPECT_EQ(std::string(events[1].name), "op");
  EXPECT_GE(events[1].t_us, events[0].t_us);
  std::string json = ring.ToJsonLines();
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos) << json;
}

TEST(TraceRingTest, MultiThreadOverflowSweepNoTornEvents) {
  // 8 threads overflow a 4096-slot ring several times over. Every retained
  // event must be internally consistent (component / name / detail written
  // by the same Emit — a torn slot would mix threads), the retained window
  // must be contiguous in seq, and the drop accounting must balance.
  constexpr size_t kCapacity = TraceRing::kDefaultCapacity;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;  // 16000 total, ~4x overflow.
  TraceRing ring(kCapacity);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      std::string comp = "t" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        ring.Emit(TraceKind::kInstant, comp, comp + ".e" + std::to_string(i),
                  comp);
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t total = uint64_t(kThreads) * kPerThread;
  EXPECT_EQ(ring.total_emitted(), total);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(ring.dropped(), total - kCapacity);

  std::vector<int> last_index(kThreads, -1);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) {
      ASSERT_EQ(e.seq, events[i - 1].seq + 1) << "gap in retained window";
    }
    std::string comp(e.component);
    std::string name(e.name);
    ASSERT_EQ(std::string(e.detail), comp) << "torn detail at seq " << e.seq;
    ASSERT_EQ(name.rfind(comp + ".e", 0), 0u)
        << "torn name/component pair at seq " << e.seq << ": " << comp
        << " / " << name;
    // Per-thread event indices must appear in emission order.
    int t = std::stoi(comp.substr(1));
    int idx = std::stoi(name.substr(comp.size() + 2));
    ASSERT_GT(idx, last_index[t]) << "thread " << t << " reordered";
    last_index[t] = idx;
  }
}

TEST(ObsConcurrency, ExportUnderLoadStaysConsistent) {
  // Satellite for the documented snapshot-vs-Reset semantics: exports
  // racing writers must only ever see values some writer produced, and
  // successive snapshots must be monotone (no Reset in this test). TSan
  // (scripts/tsan_tests.sh) is the other half of the judge here.
  MetricRegistry registry;
  Counter& ops = registry.GetCounter("ops");
  Histogram& lat = registry.GetHistogram("lat");
  constexpr int kThreads = 4;
  constexpr int kOps = 30000;
  constexpr uint64_t kValue = 7;  // Single bucket: bucket totals are exact.
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        ops.Increment();
        lat.Record(kValue);
      }
    });
  }
  uint64_t last_ops = 0, last_count = 0;
  std::thread exporter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      RegistrySnapshot snap = registry.Snapshot();
      uint64_t c = snap.counters.at("ops");
      const HistogramSnapshot& h = snap.histograms.at("lat");
      ASSERT_GE(c, last_ops);
      ASSERT_GE(h.count, last_count);
      ASSERT_LE(c, uint64_t(kThreads) * kOps);
      uint64_t bucket_total = 0;
      for (uint64_t b : h.buckets) bucket_total += b;
      // Everything lands in Record(7)'s bucket; nothing ever appears in
      // another bucket (a torn read would).
      ASSERT_EQ(bucket_total, h.buckets[Histogram::BucketIndex(kValue)]);
      ASSERT_LE(bucket_total, uint64_t(kThreads) * kOps);
      // JSON export must serialize mid-load without dying.
      ASSERT_FALSE(ToJson(snap).empty());
      last_ops = c;
      last_count = h.count;
    }
  });
  for (auto& th : writers) th.join();
  done.store(true);
  exporter.join();
  RegistrySnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.counters.at("ops"), uint64_t(kThreads) * kOps);
  EXPECT_EQ(final_snap.histograms.at("lat").count, uint64_t(kThreads) * kOps);
  EXPECT_EQ(final_snap.histograms.at("lat").sum,
            kValue * uint64_t(kThreads) * kOps);
}

TEST(TraceRingTest, DisabledModeDropsEvents) {
  TraceRing ring(8);
  SetEnabled(false);
  ring.Emit(TraceKind::kInstant, "test", "dropped");
  SetEnabled(true);
  EXPECT_EQ(ring.total_emitted(), 0u);
  ring.Emit(TraceKind::kInstant, "test", "kept");
  EXPECT_EQ(ring.total_emitted(), 1u);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, DumpJsonEscapesControlCharacters) {
  FlightRecorder recorder;
  recorder.Trigger("say \"hi\"\\now", "line1\nline2\x01");
  std::vector<FlightDump> dumps = recorder.Dumps();
  ASSERT_EQ(dumps.size(), 1u);
  std::string json = dumps[0].ToJson();
  EXPECT_NE(json.find(R"("reason":"say \"hi\"\\now")"), std::string::npos)
      << json.substr(0, 200);
  EXPECT_NE(json.find(R"("detail":"line1\nline2\u0001")"), std::string::npos)
      << json.substr(0, 200);
}

}  // namespace
}  // namespace tc::obs
