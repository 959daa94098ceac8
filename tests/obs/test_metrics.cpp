#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace hotc::obs {
namespace {

TEST(Counter, MonotonicIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Registry, FindOrCreateIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("hotc_test_total", "help a");
  Counter& b = reg.counter("hotc_test_total", "help ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  // Distinct labels are distinct instruments of the same family.
  Counter& c = reg.counter("hotc_test_total", "help", "shard=\"1\"");
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, FirstHelpTextWinsAcrossLabels) {
  Registry reg;
  reg.counter("hotc_family_total", "the real help", "shard=\"0\"");
  reg.counter("hotc_family_total", "a different string", "shard=\"1\"");
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].help, "the real help");
  EXPECT_EQ(snap[1].help, "the real help");
}

TEST(Registry, SnapshotIsSortedByNameThenLabels) {
  Registry reg;
  reg.counter("hotc_zzz_total", "z");
  reg.gauge("hotc_aaa", "a", "shard=\"1\"");
  reg.gauge("hotc_aaa", "a", "shard=\"0\"");
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "hotc_aaa");
  EXPECT_EQ(snap[0].labels, "shard=\"0\"");
  EXPECT_EQ(snap[1].labels, "shard=\"1\"");
  EXPECT_EQ(snap[2].name, "hotc_zzz_total");
}

TEST(Registry, SnapshotCapturesValues) {
  Registry reg;
  reg.counter("hotc_events_total", "events").inc(7);
  reg.gauge("hotc_level", "level").set(3.25);
  reg.histogram("hotc_lat_ms", "latency").observe(8.0);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (const MetricSample& s : snap) {
    if (s.name == "hotc_events_total") {
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    }
    if (s.name == "hotc_level") {
      EXPECT_DOUBLE_EQ(s.value, 3.25);
    }
    if (s.name == "hotc_lat_ms") {
      EXPECT_EQ(s.histogram.total, 1u);
      EXPECT_DOUBLE_EQ(s.histogram.sum, 8.0);
    }
  }
}

TEST(Registry, CollectedSamplesMergeWithPushedOnes) {
  Registry reg;
  reg.counter("hotc_events_total", "events").inc(2);
  Registry::Collection a = reg.collect([](MetricSink& out) {
    out.counter("hotc_events_total", "events", 3.0);
    out.gauge("hotc_level", "level", 1.5, "node=\"0\"");
  });
  Registry::Collection b = reg.collect([](MetricSink& out) {
    out.gauge("hotc_level", "level", 2.0, "node=\"0\"");
    out.gauge("hotc_level", "level", 4.0, "node=\"1\"");
  });
  RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "hotc_events_total");
  EXPECT_DOUBLE_EQ(snap[0].value, 5.0);  // pushed + collected
  EXPECT_EQ(snap[1].labels, "node=\"0\"");
  EXPECT_DOUBLE_EQ(snap[1].value, 3.5);  // two owners, one total
  EXPECT_EQ(snap[2].labels, "node=\"1\"");
  EXPECT_DOUBLE_EQ(snap[2].value, 4.0);

  b = Registry::Collection();
  snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[1].value, 1.5);
  // A moved-from handle owns nothing; the moved-to one unregisters.
  Registry::Collection moved = std::move(a);
  a = Registry::Collection();
  EXPECT_EQ(reg.snapshot().size(), 2u);
  moved = Registry::Collection();
  snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].value, 2.0);
}

TEST(Registry, CollectorMayTakeAPoolShardRankedLock) {
  // snapshot() runs collectors after releasing the registry lock (band
  // kObsRegistry), so a collector may take its owner's locks, which rank
  // below it.  Under HOTC_AUDIT the rank auditor would abort otherwise.
  Registry reg;
  RankedMutex shard(LockRank::kPoolShard, 0, "test.shard");
  const Registry::Collection handle = reg.collect([&shard](MetricSink& out) {
    const RankedGuard lock(shard);
    out.gauge("hotc_test_depth", "depth under the shard lock", 5.0);
  });
  reg.counter("hotc_test_total", "pushed").inc();
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "hotc_test_depth");
  EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
  EXPECT_EQ(snap[1].name, "hotc_test_total");
}

TEST(LogHistogram, BucketIndexCoversTheDomain) {
  // Non-positive and sub-domain samples land in underflow (0); huge ones
  // in overflow (kBuckets + 1); everything else in a real bucket whose
  // edges bracket the sample.
  EXPECT_EQ(LogHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(-3.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1e-10), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1e15), LogHistogram::kBuckets + 1);
  for (double v : {1e-3, 0.1, 1.0, 3.7, 128.0, 5e8}) {
    const int idx = LogHistogram::bucket_index(v);
    ASSERT_GE(idx, 1);
    ASSERT_LE(idx, LogHistogram::kBuckets);
    const int b = idx - 1;
    EXPECT_LE(LogHistogram::lower_bound(b), v);
    if (b + 1 < LogHistogram::kBuckets) {
      EXPECT_GT(LogHistogram::lower_bound(b + 1), v);
    }
  }
}

TEST(LogHistogram, QuantileErrorBoundedByBucketWidth) {
  // The documented contract: quantiles answered from the log-scale
  // buckets are within a factor of kWidth of the exact order statistic.
  LogHistogram hist;
  Rng rng(1234);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~6 decades, the shape latencies actually have.
    const double v = std::pow(10.0, -2.0 + 6.0 * rng.uniform());
    samples.push_back(v);
    hist.observe(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, samples.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double approx = snap.quantile(q);
    EXPECT_LE(approx, exact * LogHistogram::kWidth)
        << "q=" << q << " exact=" << exact;
    EXPECT_GE(approx, exact / LogHistogram::kWidth)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(LogHistogram, SumAndMeanAreExact) {
  LogHistogram hist;
  double expect_sum = 0.0;
  for (double v : {1.0, 2.0, 4.0, 10.0}) {
    hist.observe(v);
    expect_sum += v;
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.sum, expect_sum);
  EXPECT_DOUBLE_EQ(snap.mean(), expect_sum / 4.0);
}

TEST(LogHistogram, QuantileDegenerateCases) {
  LogHistogram hist;
  EXPECT_DOUBLE_EQ(hist.snapshot().quantile(0.5), 0.0);  // empty
  hist.observe(-1.0);  // underflow only
  EXPECT_DOUBLE_EQ(hist.snapshot().quantile(0.5), 0.0);
}

}  // namespace
}  // namespace hotc::obs
