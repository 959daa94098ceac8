#include "faas/platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

namespace hotc::faas {
namespace {

workload::ConfigMix qr_mix() { return workload::ConfigMix::qr_web_service(3); }

TEST(Platform, ColdAlwaysEveryRequestCold) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kColdAlways;
  FaasPlatform platform(opt);
  const auto arrivals = workload::serial(5, seconds(30));
  const auto recorder = platform.run(arrivals, qr_mix());
  const auto s = recorder.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.cold_count, 5u);
  EXPECT_EQ(platform.failed_requests(), 0u);
}

TEST(Platform, HotCOnlyFirstRequestCold) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  const auto arrivals = workload::serial(5, seconds(30));
  const auto recorder = platform.run(arrivals, qr_mix());
  const auto s = recorder.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.cold_count, 1u);
  EXPECT_LT(s.warm_mean_ms, s.cold_mean_ms);
}

TEST(Platform, HotCControllerAccessible) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  EXPECT_NE(platform.hotc_controller(), nullptr);

  PlatformOptions cold;
  cold.policy = PolicyKind::kColdAlways;
  FaasPlatform other(cold);
  EXPECT_EQ(other.hotc_controller(), nullptr);
}

TEST(Platform, KeepAliveBetweenColdAndHotC) {
  const auto arrivals = workload::serial(8, seconds(30));

  PlatformOptions cold_opt;
  cold_opt.policy = PolicyKind::kColdAlways;
  const auto cold = FaasPlatform(cold_opt).run(arrivals, qr_mix()).summary();

  PlatformOptions ka_opt;
  ka_opt.policy = PolicyKind::kKeepAlive;
  ka_opt.keep_alive = minutes(15);
  const auto ka = FaasPlatform(ka_opt).run(arrivals, qr_mix()).summary();

  PlatformOptions hot_opt;
  hot_opt.policy = PolicyKind::kHotC;
  const auto hot = FaasPlatform(hot_opt).run(arrivals, qr_mix()).summary();

  EXPECT_LT(ka.mean_ms, cold.mean_ms);
  EXPECT_LE(hot.cold_count, ka.cold_count);
  EXPECT_LT(hot.mean_ms, cold.mean_ms);
}

TEST(Platform, MonitorCollectsWhenEnabled) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  opt.monitor_period = seconds(5);
  FaasPlatform platform(opt);
  platform.run(workload::serial(4, seconds(30)), qr_mix());
  ASSERT_NE(platform.monitor(), nullptr);
  EXPECT_GT(platform.monitor()->cpu().size(), 10u);
}

TEST(Platform, CompletedRequestsHaveTimestamps) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  platform.run(workload::serial(3, seconds(10)), qr_mix());
  ASSERT_EQ(platform.completed().size(), 3u);
  for (const auto& c : platform.completed()) {
    EXPECT_GT(c.t6, c.submitted);
    EXPECT_GE(c.t3, c.t2);
  }
}

TEST(Platform, EmptyWorkload) {
  PlatformOptions opt;
  FaasPlatform platform(opt);
  const auto recorder = platform.run({}, qr_mix());
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(Platform, ParallelConfigsIsolated) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  // Two rounds of 3 threads, each thread its own config: round 1 all cold,
  // round 2 all warm.
  const auto arrivals = workload::parallel(3, 2, seconds(60));
  const auto recorder = platform.run(arrivals, qr_mix());
  const auto round1 = recorder.summary_between(kZeroDuration, seconds(30));
  const auto round2 = recorder.summary_between(seconds(30), seconds(120));
  EXPECT_EQ(round1.cold_count, 3u);
  EXPECT_EQ(round2.cold_count, 0u);
}

TEST(Platform, SameInstantArrivalsCompleteInIdOrder) {
  // One proxy worker serialises the requests in the order their arrival
  // events fire; arrivals at one instant must fire in list order.
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  opt.gateway.max_concurrent = 1;
  FaasPlatform platform(opt);
  workload::ArrivalList arrivals;
  for (std::size_t i = 0; i < 8; ++i) {
    arrivals.push_back({seconds(1), i % 3});
  }
  platform.run(arrivals, qr_mix());
  ASSERT_EQ(platform.completed().size(), arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(platform.completed()[i].id, i + 1);
  }
}

TEST(Platform, UnsortedArrivalsReplayAsTheirStableSort) {
  // Out of time order, with ties.
  const workload::ArrivalList unsorted{
      {seconds(20), 0}, {seconds(5), 1},  {seconds(20), 2}, {seconds(5), 0},
      {seconds(12), 1}, {seconds(5), 2},  {seconds(20), 1}, {seconds(12), 0},
      {seconds(5), 1},  {seconds(40), 2}};
  std::vector<std::size_t> order(unsorted.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&unsorted](std::size_t a, std::size_t b) {
                     return unsorted[a].at < unsorted[b].at;
                   });
  workload::ArrivalList sorted;
  std::vector<std::size_t> position(unsorted.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    sorted.push_back(unsorted[order[k]]);
    position[order[k]] = k;
  }

  // One proxy worker makes each request's queueing depend on its place
  // among the ties.
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  opt.gateway.max_concurrent = 1;
  const auto latencies = [&opt](const workload::ArrivalList& arrivals) {
    FaasPlatform platform(opt);
    const auto recorder = platform.run(arrivals, qr_mix());
    std::map<std::uint64_t, Duration> by_id;
    for (const auto& p : recorder.points()) by_id[p.request_id] = p.latency;
    return by_id;
  };
  const auto got = latencies(unsorted);
  const auto want = latencies(sorted);
  ASSERT_EQ(got.size(), unsorted.size());
  ASSERT_EQ(want.size(), unsorted.size());
  for (std::size_t i = 0; i < unsorted.size(); ++i) {
    EXPECT_EQ(got.at(i + 1), want.at(position[i] + 1)) << "list index " << i;
  }
}

TEST(Platform, UnsortedArrivalsKeepTheLatestHorizon) {
  // The latest arrival sits mid-list, more than the trailing slack after
  // the list's last entry.  The run's horizon (adaptive loop, warm-up
  // timers, monitor) must still follow the latest arrival, as it does for
  // the stable-sorted copy of the list.
  const workload::ArrivalList unsorted{
      {seconds(0), 0}, {minutes(10), 1}, {seconds(30), 2}, {minutes(1), 0}};
  workload::ArrivalList sorted = unsorted;
  std::stable_sort(sorted.begin(), sorted.end());
  ASSERT_GT(unsorted[1].at - unsorted.back().at,
            PlatformOptions{}.trailing_slack);

  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform got(opt);
  got.run(unsorted, qr_mix());
  FaasPlatform want(opt);
  want.run(sorted, qr_mix());
  const HotCController& a = *got.hotc_controller();
  const HotCController& b = *want.hotc_controller();
  EXPECT_EQ(a.adaptive_ticks(), b.adaptive_ticks());
  const ControllerStats& sa = a.stats();
  const ControllerStats& sb = b.stats();
  EXPECT_EQ(sa.requests, sb.requests);
  EXPECT_EQ(sa.cold_starts, sb.cold_starts);
  EXPECT_EQ(sa.reuses, sb.reuses);
  EXPECT_EQ(sa.donor_lookups, sb.donor_lookups);
  EXPECT_EQ(sa.donor_hits, sb.donor_hits);
  EXPECT_EQ(sa.respec_rejected, sb.respec_rejected);
  EXPECT_EQ(sa.donor_respec_seconds, sb.donor_respec_seconds);
  EXPECT_EQ(sa.cold_start_seconds, sb.cold_start_seconds);
  EXPECT_EQ(sa.restores, sb.restores);
  EXPECT_EQ(sa.checkpoints, sb.checkpoints);
  EXPECT_EQ(sa.prewarm_launches, sb.prewarm_launches);
  EXPECT_EQ(sa.retired, sb.retired);
  EXPECT_EQ(sa.evicted, sb.evicted);
  EXPECT_EQ(sa.drift_restarts, sb.drift_restarts);
  EXPECT_EQ(sa.idle_container_seconds, sb.idle_container_seconds);
}

TEST(Platform, PolicyNames) {
  EXPECT_STREQ(to_string(PolicyKind::kColdAlways), "cold-always");
  EXPECT_STREQ(to_string(PolicyKind::kHotC), "hotc");
}

}  // namespace
}  // namespace hotc::faas

namespace hotc::faas {
namespace {

TEST(Platform, PeriodicWarmupRegistersPingsForWholeMix) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kPeriodicWarmup;
  opt.warmup_period = minutes(5);
  opt.keep_alive = minutes(15);
  FaasPlatform platform(opt);
  // One real request at minute 50, long after the first ping round: the
  // warmup timers must have kept the runtime warm.
  workload::ArrivalList arrivals{{minutes(50), 0}};
  const auto mix = workload::ConfigMix::qr_web_service(2);
  const auto recorder = platform.run(arrivals, mix);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_FALSE(recorder.points()[0].cold);
  auto* backend = dynamic_cast<PeriodicWarmupBackend*>(&platform.backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_GE(backend->warmup_pings(), 18u);  // 2 functions x ~10 rounds
}

TEST(Platform, PeriodicWarmupCostsPingsThatHotcAvoids) {
  const auto arrivals = workload::serial(4, minutes(10));
  const auto mix = workload::ConfigMix::qr_web_service(1);

  PlatformOptions warm_opt;
  warm_opt.policy = PolicyKind::kPeriodicWarmup;
  warm_opt.warmup_period = minutes(5);
  FaasPlatform warm(warm_opt);
  warm.run(arrivals, mix);

  PlatformOptions hot_opt;
  hot_opt.policy = PolicyKind::kHotC;
  FaasPlatform hot(hot_opt);
  hot.run(arrivals, mix);

  // Both keep the function warm, but the warmup policy burns extra execs.
  EXPECT_GT(warm.engine().execs(), hot.engine().execs());
}

}  // namespace
}  // namespace hotc::faas
