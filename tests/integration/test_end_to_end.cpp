// End-to-end integration tests: full platform runs over the paper's
// workload shapes, asserting the qualitative results each figure reports.
#include <gtest/gtest.h>

#include <cmath>

#include "faas/platform.hpp"
#include "predict/meta.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"
#include "workload/trace.hpp"

namespace hotc {
namespace {

using faas::FaasPlatform;
using faas::PlatformOptions;
using faas::PolicyKind;

metrics::LatencySummary run_policy(PolicyKind policy,
                                   const workload::ArrivalList& arrivals,
                                   const workload::ConfigMix& mix) {
  PlatformOptions opt;
  opt.policy = policy;
  FaasPlatform platform(opt);
  return platform.run(arrivals, mix).summary();
}

TEST(EndToEnd, SerialWorkloadOnlyFirstRequestCold) {
  // Fig. 12(a): after the very first request, HotC reuses the runtime.
  const auto arrivals = workload::serial(20, seconds(30));
  const auto mix = workload::ConfigMix::qr_web_service(1);
  const auto hotc = run_policy(PolicyKind::kHotC, arrivals, mix);
  const auto cold = run_policy(PolicyKind::kColdAlways, arrivals, mix);
  EXPECT_EQ(hotc.cold_count, 1u);
  EXPECT_EQ(cold.cold_count, 20u);
  EXPECT_LT(hotc.mean_ms, cold.mean_ms * 0.6);
}

TEST(EndToEnd, ParallelDistinctConfigsLargeGain) {
  // Fig. 12(b): ten threads with their own configurations; after the first
  // round HotC's average latency collapses relative to cold-always.
  const auto arrivals = workload::parallel(10, 8, seconds(30));
  const auto mix = workload::ConfigMix::qr_web_service(10);
  const auto hotc = run_policy(PolicyKind::kHotC, arrivals, mix);
  const auto cold = run_policy(PolicyKind::kColdAlways, arrivals, mix);
  EXPECT_EQ(hotc.cold_count, 10u);  // one per configuration
  EXPECT_EQ(cold.cold_count, 80u);
  // "The average latency with HotC is only 9% of the default case" —
  // our substrate reproduces a large gap, not an exact 9 %.
  EXPECT_LT(hotc.mean_ms, cold.mean_ms * 0.35);
}

TEST(EndToEnd, LinearIncreasingHotCPrewarmsAhead) {
  // Fig. 13(a): with the adaptive controller predicting growth, most of
  // the added requests find runtimes.
  const auto arrivals = workload::linear_increasing(2, 2, 12, seconds(30));
  const auto mix = workload::ConfigMix::qr_web_service(1);
  const auto hotc = run_policy(PolicyKind::kHotC, arrivals, mix);
  const auto cold = run_policy(PolicyKind::kColdAlways, arrivals, mix);
  EXPECT_LT(hotc.cold_fraction(), 0.45);
  EXPECT_LT(hotc.mean_ms, cold.mean_ms);
}

TEST(EndToEnd, LinearDecreasingAlwaysWarmAfterFirstRound) {
  // Fig. 13(b): "there is always a container available if the requests
  // keep decreasing", so latency stays low except the very first round.
  const auto arrivals = workload::linear_decreasing(12, 2, 6, seconds(30));
  const auto mix = workload::ConfigMix::qr_web_service(1);
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  const auto recorder = platform.run(arrivals, mix);
  const auto after_first =
      recorder.summary_between(seconds(30), hours(1));
  EXPECT_EQ(after_first.cold_count, 0u);
}

TEST(EndToEnd, ExponentialIncreasingAtLeastHalfReused) {
  // Fig. 14(a): "at least half of the requests in HotC can directly use
  // the existing instances of the previous wave."
  const auto arrivals = workload::exponential_increasing(7, seconds(30));
  const auto mix = workload::ConfigMix::qr_web_service(1);
  const auto hotc = run_policy(PolicyKind::kHotC, arrivals, mix);
  EXPECT_LT(hotc.cold_fraction(), 0.5);
}

TEST(EndToEnd, BurstLaterBurstsMuchCheaper) {
  // Fig. 14(b): the first burst helps a little; later bursts reuse the
  // previous burst's containers and the adaptive pool.
  const auto arrivals =
      workload::burst(8, 10.0, {4, 8, 12, 16}, 20, seconds(30));
  const auto mix = workload::ConfigMix::qr_web_service(1);

  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  // The paper's burst gains come from the previous burst's containers
  // still being around; a grow-only pool (pressure-only shrink) is the
  // matching configuration.
  opt.hotc.enable_retire = false;
  FaasPlatform platform(opt);
  const auto recorder = platform.run(arrivals, mix);
  const auto first_burst =
      recorder.summary_between(seconds(30 * 4), seconds(30 * 5));
  const auto last_burst =
      recorder.summary_between(seconds(30 * 16), seconds(30 * 17));
  EXPECT_GT(first_burst.count, 0u);
  EXPECT_GT(last_burst.count, 0u);
  EXPECT_GT(first_burst.cold_count, 0u);   // pool too small at first spike
  EXPECT_EQ(last_burst.cold_count, 0u);    // later bursts fully reuse
  EXPECT_LT(last_burst.mean_ms, first_burst.mean_ms);
}

TEST(EndToEnd, TraceDrivenDayReplayScaledDown) {
  // Fig. 11's trace shape driving a platform (scaled down 20x for test
  // speed): HotC beats cold-always overall.
  auto counts = workload::umass_youtube_trace();
  counts.resize(120);  // two hours
  for (auto& c : counts) c = std::floor(c / 20.0);
  Rng rng(3);
  const auto arrivals =
      workload::from_counts(counts, seconds(60), 4, &rng);
  const auto mix = workload::ConfigMix::qr_web_service(4);
  const auto hotc = run_policy(PolicyKind::kHotC, arrivals, mix);
  const auto cold = run_policy(PolicyKind::kColdAlways, arrivals, mix);
  EXPECT_LT(hotc.cold_fraction(), 0.2);
  EXPECT_LT(hotc.mean_ms, cold.mean_ms);
}

TEST(EndToEnd, EdgeDeviceStillBenefits) {
  // Fig. 8(b): on the Pi the relative gain shrinks (execution dominates)
  // but HotC still wins.
  const auto arrivals = workload::serial(6, minutes(1));
  const auto mix = workload::ConfigMix::image_recognition();
  PlatformOptions hot_opt;
  hot_opt.policy = PolicyKind::kHotC;
  hot_opt.host = engine::HostProfile::edge_pi();
  const auto hotc = FaasPlatform(hot_opt).run(arrivals, mix).summary();

  PlatformOptions cold_opt;
  cold_opt.policy = PolicyKind::kColdAlways;
  cold_opt.host = engine::HostProfile::edge_pi();
  const auto cold = FaasPlatform(cold_opt).run(arrivals, mix).summary();

  EXPECT_LT(hotc.mean_ms, cold.mean_ms);
  // Execution dominates on the edge: even cold, the ratio is mild.
  EXPECT_GT(hotc.mean_ms, cold.mean_ms * 0.5);
}

TEST(EndToEnd, PoolNeverExceedsCapUnderFlood) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  opt.hotc.limits.max_live = 20;
  FaasPlatform platform(opt);
  // 40 concurrent configs -> 40 containers wanted; cap must hold after
  // the controller's pressure pass.
  const auto arrivals = workload::parallel(40, 3, minutes(1));
  const auto mix = workload::ConfigMix::qr_web_service(40);
  platform.run(arrivals, mix);
  EXPECT_LE(platform.hotc_controller()->runtime_pool().total_available(),
            20u);
}

TEST(EndToEnd, StatsConsistency) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  const auto arrivals = workload::serial(10, seconds(20));
  const auto mix = workload::ConfigMix::qr_web_service(1);
  const auto recorder = platform.run(arrivals, mix);
  const auto& stats = platform.hotc_controller()->stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.cold_starts + stats.reuses, 10u);
  EXPECT_EQ(recorder.summary().cold_count, stats.cold_starts);
}

}  // namespace
}  // namespace hotc

namespace hotc {
namespace {

TEST(EndToEnd, AllExtensionsTogether) {
  // Subset key + pause + tiered checkpoint/restore + meta predictor, all on at
  // once, over mixed traffic: the combination must stay correct, not just
  // each feature alone.
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.hotc.use_subset_key = true;
  opt.hotc.pause_idle_after = minutes(2);
  opt.hotc.tiering.enabled = true;
  opt.hotc.idle_cap = minutes(4);
  opt.hotc.predictor_factory = predict::make_meta_predictor;
  faas::FaasPlatform platform(opt);

  Rng rng(88);
  const auto arrivals = workload::poisson(0.3, minutes(30), rng, 8, 0.5);
  const auto mix = workload::ConfigMix::qr_web_service(8);
  const auto recorder = platform.run(arrivals, mix);

  EXPECT_EQ(recorder.size(), arrivals.size());
  EXPECT_EQ(platform.failed_requests(), 0u);
  const auto& stats = platform.hotc_controller()->stats();
  EXPECT_EQ(stats.requests, arrivals.size());
  EXPECT_EQ(stats.cold_starts + stats.reuses, stats.requests);
  // Bookkeeping still balances across all features.
  EXPECT_EQ(platform.engine().idle_count() +
                platform.hotc_controller()->runtime_pool().paused_count(),
            platform.hotc_controller()->runtime_pool().total_available());
}

TEST(EndToEnd, SoakFiftyThousandRequests) {
  // Scale check: a long, dense day of traffic completes with balanced
  // accounting and a sane cold rate.  Virtual time makes this cheap.
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  faas::FaasPlatform platform(opt);
  Rng rng(99);
  const auto arrivals = workload::poisson(7.0, hours(2), rng, 20, 1.0);
  ASSERT_GT(arrivals.size(), 45000u);
  const auto mix = workload::ConfigMix::qr_web_service(20);
  const auto recorder = platform.run(arrivals, mix);
  const auto s = recorder.summary();
  EXPECT_EQ(s.count, arrivals.size());
  EXPECT_EQ(platform.failed_requests(), 0u);
  EXPECT_LT(s.cold_fraction(), 0.02);
  const auto& stats = platform.hotc_controller()->stats();
  EXPECT_EQ(stats.cold_starts + stats.reuses, stats.requests);
  EXPECT_LE(platform.engine().live_count(),
            opt.hotc.limits.max_live);
}

}  // namespace
}  // namespace hotc
