// Tests for the observability layer (src/obs/): histogram bucketing and
// percentiles, snapshot merging, counter registration, and the per-thread
// event tracer (wrap-around, drain order).

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/engine_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mv3c::obs {
namespace {

// ---------------------------------------------------------------------------
// Always-on: MetricsRegistry counters and MetricsSnapshot merging.

TEST(MetricsRegistry, CountersViewLiveFields) {
  uint64_t commits = 0, peak = 0;
  MetricsRegistry reg;
  reg.RegisterCounter("commits", &commits);
  reg.RegisterCounter("peak", &peak, MergeKind::kMax);

  commits = 7;
  peak = 3;
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Value("commits"), 7u);
  EXPECT_EQ(s.Value("peak"), 3u);
  EXPECT_TRUE(s.Has("commits"));
  EXPECT_FALSE(s.Has("aborts"));
  EXPECT_EQ(s.Value("aborts"), 0u);  // absent counters read as zero

  // The snapshot is a copy; later increments need a new snapshot.
  commits = 9;
  EXPECT_EQ(s.Value("commits"), 7u);
  EXPECT_EQ(reg.Snapshot().Value("commits"), 9u);
}

TEST(MetricsSnapshot, MergeSumsAndMaxes) {
  uint64_t a_commits = 10, a_peak = 5;
  uint64_t b_commits = 4, b_peak = 8;
  MetricsRegistry a, b;
  a.RegisterCounter("commits", &a_commits);
  a.RegisterCounter("peak", &a_peak, MergeKind::kMax);
  b.RegisterCounter("commits", &b_commits);
  b.RegisterCounter("peak", &b_peak, MergeKind::kMax);
  b.RegisterCounter("only_b", &b_commits);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.Value("commits"), 14u);  // kSum
  EXPECT_EQ(merged.Value("peak"), 8u);      // kMax
  EXPECT_EQ(merged.Value("only_b"), 4u);    // adopted from the other side
}

TEST(MetricsSnapshot, EngineStatsRegisterUnderNativeNames) {
  Mv3cStats s;
  s.commits = 3;
  s.repair_rounds = 11;
  s.max_rounds = 4;
  MetricsRegistry reg;
  RegisterCounters(&reg, &s);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("commits"), 3u);
  EXPECT_EQ(snap.Value("repair_rounds"), 11u);
  EXPECT_EQ(snap.Value("max_rounds"), 4u);

  // max_rounds merges as a high-water mark, not a sum.
  Mv3cStats s2;
  s2.max_rounds = 2;
  s2.commits = 1;
  MetricsRegistry reg2;
  RegisterCounters(&reg2, &s2);
  snap.Merge(reg2.Snapshot());
  EXPECT_EQ(snap.Value("max_rounds"), 4u);
  EXPECT_EQ(snap.Value("commits"), 4u);
}

TEST(MetricsSnapshot, JsonSerialization) {
  uint64_t commits = 12;
  MetricsRegistry reg;
  reg.RegisterCounter("commits", &commits);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CountersJson(), "{\"commits\":12}");
  // No phase samples recorded -> empty phases object in every build.
  EXPECT_EQ(s.PhasesJson(), "{}");
}

TEST(HistogramSnapshot, EmptyPercentilesAreZero) {
  HistogramSnapshot h;
  EXPECT_EQ(h.PercentileTicks(0.5), 0u);
  EXPECT_EQ(h.PercentileTicks(1.0), 0u);
  EXPECT_EQ(h.MaxNs(), 0.0);
  EXPECT_EQ(h.MeanNs(), 0.0);
}

// ---------------------------------------------------------------------------
// LatencyHistogram bucket math and percentile semantics.

TEST(LatencyHistogram, BucketBoundaries) {
  // Bucket i holds [2^i, 2^(i+1)); zero lands in bucket 0 with {1}.
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 2);
  EXPECT_EQ(LatencyHistogram::BucketOf(7), 2);
  EXPECT_EQ(LatencyHistogram::BucketOf(8), 3);
  EXPECT_EQ(LatencyHistogram::BucketOf(uint64_t{1} << 20), 20);
  EXPECT_EQ(LatencyHistogram::BucketOf((uint64_t{1} << 21) - 1), 20);
  EXPECT_EQ(LatencyHistogram::BucketOf(~uint64_t{0}), 63);
}

TEST(LatencyHistogram, SingleSampleIsExactAtEveryQuantile) {
  LatencyHistogram h;
  h.Record(1000);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  // Bucket upper edge would be 1023; the max-clamp makes it exact.
  EXPECT_EQ(s.PercentileTicks(0.0), 1000u);
  EXPECT_EQ(s.PercentileTicks(0.5), 1000u);
  EXPECT_EQ(s.PercentileTicks(0.99), 1000u);
  EXPECT_EQ(s.PercentileTicks(1.0), 1000u);
}

TEST(LatencyHistogram, PercentilesPickTheRightBucket) {
  LatencyHistogram h;
  // 90 fast samples in bucket 3 ([8,16)), 10 slow ones in bucket 10
  // ([1024,2048)).
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1500);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max_ticks, 1500u);
  // p50 and p90 fall in the fast bucket: upper edge 15.
  EXPECT_EQ(s.PercentileTicks(0.50), 15u);
  EXPECT_EQ(s.PercentileTicks(0.90), 15u);
  // p99 falls in the slow bucket: upper edge 2047, clamped to max 1500.
  EXPECT_EQ(s.PercentileTicks(0.99), 1500u);
  EXPECT_EQ(s.PercentileTicks(1.0), 1500u);
}

TEST(LatencyHistogram, MergeAccumulates) {
  LatencyHistogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(4000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  const HistogramSnapshot s = a.Snapshot();
  EXPECT_EQ(s.sum_ticks, 4030u);
  EXPECT_EQ(s.max_ticks, 4000u);
}

TEST(HistogramSnapshot, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  for (uint64_t v : {3u, 9u, 100u}) {
    a.Record(v);
    both.Record(v);
  }
  for (uint64_t v : {5u, 700u}) {
    b.Record(v);
    both.Record(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const HistogramSnapshot direct = both.Snapshot();
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_EQ(merged.sum_ticks, direct.sum_ticks);
  EXPECT_EQ(merged.max_ticks, direct.max_ticks);
  EXPECT_EQ(merged.buckets, direct.buckets);
  for (double p : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.PercentileTicks(p), direct.PercentileTicks(p)) << p;
  }
}

TEST(ScopedPhaseTimer, RecordsIntoRegistryPhase) {
  MetricsRegistry reg;
  {
    ScopedPhaseTimer t(&reg, Phase::kValidate);
  }
  { ScopedPhaseTimer t(nullptr, Phase::kValidate); }  // null-safe
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.phase(Phase::kValidate).count, 1u);
  EXPECT_EQ(s.phase(Phase::kExecute).count, 0u);
  // PhasesJson now carries exactly the one phase with samples.
  EXPECT_NE(s.PhasesJson().find("\"validate\""), std::string::npos);
  EXPECT_EQ(s.PhasesJson().find("\"execute\""), std::string::npos);
}

TEST(PhaseSampler, FirstTickSamplesThenOncePerPeriod) {
  PhaseSampler s;
  EXPECT_TRUE(s.Tick());  // first transaction is always sampled
  int hits = 1;
  for (uint32_t i = 1; i < 3 * kPhaseSampleEvery; ++i) {
    if (s.Tick()) ++hits;
  }
  EXPECT_EQ(hits, 3);
}

TEST(Tsc, CalibrationIsPositiveAndStable) {
  const double r1 = TscTicksPerNs();
  const double r2 = TscTicksPerNs();
  EXPECT_GT(r1, 0.0);
  EXPECT_EQ(r1, r2);  // calibrated once, then cached
}

// ---------------------------------------------------------------------------
// Tracer ring-buffer semantics.

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Reset();
    Tracer::SetEnabled(true);
  }
  void TearDown() override {
    Tracer::SetEnabled(false);
    Tracer::Reset();
  }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  Tracer::SetEnabled(false);
  Tracer::Record(TraceEvent::kCommit, 1);
  std::vector<TraceRecord> out;
  EXPECT_EQ(Tracer::Drain(&out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(TracerTest, DrainReturnsEventsInTimestampOrder) {
  Tracer::Record(TraceEvent::kBegin, 1);
  Tracer::Record(TraceEvent::kRepairRound, 1);
  Tracer::Record(TraceEvent::kCommit, 1);
  std::vector<TraceRecord> out;
  ASSERT_EQ(Tracer::Drain(&out), 3u);
  EXPECT_EQ(out[0].kind, TraceEvent::kBegin);
  EXPECT_EQ(out[1].kind, TraceEvent::kRepairRound);
  EXPECT_EQ(out[2].kind, TraceEvent::kCommit);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].tsc, out[i - 1].tsc);
  }
  // Drain clears the rings.
  std::vector<TraceRecord> again;
  EXPECT_EQ(Tracer::Drain(&again), 0u);
}

TEST_F(TracerTest, WrapAroundKeepsNewestCapacityEvents) {
  const uint64_t total = kTraceCapacity + 100;
  for (uint64_t i = 0; i < total; ++i) {
    Tracer::Record(TraceEvent::kCommit, i);
  }
  std::vector<TraceRecord> out;
  ASSERT_EQ(Tracer::Drain(&out), kTraceCapacity);
  // Oldest surviving event is #100; events stay in recording order.
  EXPECT_EQ(out.front().id, 100u);
  EXPECT_EQ(out.back().id, total - 1);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, out[i - 1].id + 1);
    EXPECT_GE(out[i].tsc, out[i - 1].tsc);
  }
}

TEST_F(TracerTest, MultiThreadDrainMergesSortedByTimestamp) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Tracer::Record(TraceEvent::kBegin, t * kPerThread + i);
      }
    });
  }
  for (auto& t : ts) t.join();
  std::vector<TraceRecord> out;
  ASSERT_EQ(Tracer::Drain(&out), kThreads * kPerThread);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].tsc, out[i - 1].tsc);
  }
}

TEST_F(TracerTest, EventNamesCoverTheEnum) {
  for (int i = 0; i < static_cast<int>(TraceEvent::kNumEvents); ++i) {
    EXPECT_NE(TraceEventName(static_cast<TraceEvent>(i)), nullptr);
    EXPECT_GT(std::string_view(TraceEventName(static_cast<TraceEvent>(i)))
                  .size(),
              0u);
  }
}

}  // namespace
}  // namespace mv3c::obs
