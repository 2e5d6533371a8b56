// The observability layer in isolation: trace lanes (ring semantics, drop
// accounting, concurrent snapshots), the Chrome-trace exporter's shape,
// and the metrics registry (counters, gauges, log-scale histograms whose
// percentiles are cross-checked against exact nearest-rank order
// statistics).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/workload.hpp"

namespace parsssp {
namespace {

TEST(TraceLane, RecordsSpansAndCountsDropsInsteadOfWrapping) {
  TraceRecorder rec(/*capacity_per_lane=*/4);
  TraceLane& lane = rec.thread_lane("test");
  for (std::uint64_t i = 0; i < 7; ++i) {
    lane.record(SpanCat::kShortPhase, static_cast<std::int64_t>(10 * i), 5, i);
  }
  const auto spans = lane.spans();
  ASSERT_EQ(spans.size(), 4u);  // ring is full, history preserved
  EXPECT_EQ(lane.dropped(), 3u);
  EXPECT_EQ(rec.total_dropped(), 3u);
  for (std::uint64_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].arg, i);  // oldest spans kept, newest dropped
    EXPECT_EQ(spans[i].cat, SpanCat::kShortPhase);
  }

  rec.clear();
  EXPECT_TRUE(rec.thread_lane("test").spans().empty());
  EXPECT_EQ(rec.total_dropped(), 0u);
}

TEST(TraceLane, ThreadLaneIsStablePerThreadAndFirstNameWins) {
  TraceRecorder rec;
  TraceLane& a = rec.thread_lane("rank0");
  TraceLane& b = rec.thread_lane("other-hint");
  EXPECT_EQ(&a, &b);  // same thread, same lane
  EXPECT_EQ(a.name(), "rank0");

  TraceLane* other = nullptr;
  std::thread t([&] { other = &rec.thread_lane("rank1"); });
  t.join();
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, &a);
  ASSERT_EQ(rec.snapshot().size(), 2u);
}

TEST(TraceLane, NullLaneScopedSpanIsANoOp) {
  // The untraced hot path: must not crash, read clocks, or record.
  ScopedSpan span(nullptr, SpanCat::kSolve);
  double acc = 0;
  { TimedSection sw(acc, nullptr, SpanCat::kBucketScan); }
  EXPECT_GE(acc, 0.0);  // accumulator still fed with tracing off
}

TEST(TraceLane, SnapshotIsSafeConcurrentWithTheWriter) {
  TraceRecorder rec(1u << 12);
  TraceLane* lane = nullptr;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lane = &rec.thread_lane("writer");
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      lane->record(SpanCat::kExchange, static_cast<std::int64_t>(i), 1, i);
      ++i;
    }
  });
  for (int r = 0; r < 200; ++r) {
    for (const auto& view : rec.snapshot()) {
      // Prefix consistency: the published spans are fully written.
      for (std::uint64_t i = 0; i < view.spans.size(); ++i) {
        ASSERT_EQ(view.spans[i].arg, i);
      }
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ChromeTrace, ExportHasTheDocumentedShape) {
  TraceRecorder rec;
  TraceLane& lane = rec.thread_lane("rank0");
  lane.record(SpanCat::kSolve, 0, 5000, 7);
  lane.record(SpanCat::kBucketScan, 100, 200);

  std::ostringstream out;
  write_chrome_trace(out, rec);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bucket_scan\""), std::string::npos);
  EXPECT_NE(json.find("rank0"), std::string::npos);
  // kNoSpanArg spans must not leak the sentinel into the JSON args.
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos);
}

TEST(Metrics, CountersAndGaugesRoundTrip) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&c, &reg.counter("requests"));  // same name, same instrument

  Gauge& g = reg.gauge("depth");
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "requests");
  EXPECT_EQ(snap.counters[0].value, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 3.5);
}

TEST(Metrics, SameNameDifferentKindThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
}

TEST(Metrics, HistogramTracksCountSumMaxExactly) {
  Histogram h;
  h.record(1e-3);
  h.record(2e-3);
  h.record(4e-3);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum, 7e-3, 1e-12);
  EXPECT_NEAR(snap.mean(), 7e-3 / 3, 1e-12);
  EXPECT_EQ(snap.max, 4e-3);
  EXPECT_EQ(Histogram().snapshot().percentile(0.5), 0.0);  // empty
}

TEST(Metrics, HistogramClampsOutOfRangeValues) {
  Histogram::Config cfg;
  cfg.base = 1.0;
  cfg.growth = 2.0;
  cfg.buckets = 4;  // [1,2) [2,4) [4,8) [8,16)
  Histogram h(cfg);
  h.record(0.125);   // below base -> bucket 0
  h.record(1e9);     // beyond top -> last bucket
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets.front(), 1u);
  EXPECT_EQ(snap.buckets.back(), 1u);

  // Every sample equals 8.5, low in bucket [8,16) whose midpoint is
  // 8*sqrt(2) ~ 11.3: no percentile may exceed the observed maximum.
  Histogram same(cfg);
  for (int i = 0; i < 5; ++i) same.record(8.5);
  const auto s = same.snapshot();
  for (const double p : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_LE(s.percentile(p), 8.5) << "p" << 100 * p;
  }

  // Every sample equals 15.5, high in the same bucket: no percentile may
  // fall below the observed minimum either.
  Histogram high(cfg);
  for (int i = 0; i < 5; ++i) high.record(15.5);
  const auto hs = high.snapshot();
  EXPECT_EQ(hs.min, 15.5);
  for (const double p : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(hs.percentile(p), 15.5) << "p" << 100 * p;
  }
}

// The cross-check the serving reports rely on: histogram percentiles must
// agree with the exact nearest-rank order statistics from
// percentile_stats() to within one bucket growth factor.
TEST(Metrics, HistogramPercentilesMatchExactWithinOneGrowthFactor) {
  Histogram h;
  std::vector<double> samples;
  double v = 1.7e-4;
  for (int i = 0; i < 500; ++i) {
    // Deterministic skewed spread over ~3 decades (hash-style scramble).
    v = 1e-4 + std::fmod(v * 9301.0 + 4.9297e-2, 1e-1);
    samples.push_back(v);
    h.record(v);
  }
  const LatencyStats exact = percentile_stats(samples);
  const auto snap = h.snapshot();
  const double tol = snap.config.growth;  // one bucket of relative error
  for (const auto& [p, ref] : {std::pair{0.50, exact.p50},
                               std::pair{0.95, exact.p95},
                               std::pair{0.99, exact.p99}}) {
    const double est = snap.percentile(p);
    EXPECT_LE(est, ref * tol) << "p" << 100 * p;
    EXPECT_GE(est, ref / tol) << "p" << 100 * p;
  }
}

TEST(Metrics, SnapshotIsSafeConcurrentWithRecording) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ops");
  Histogram& h = reg.histogram("lat");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.record(1e-3);
      }
    });
  }
  for (int r = 0; r < 500; ++r) {
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    ASSERT_EQ(snap.histograms.size(), 1u);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  const MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counters[0].value, c.value());
  EXPECT_EQ(final_snap.histograms[0].count, h.snapshot().count);
}

}  // namespace
}  // namespace parsssp
