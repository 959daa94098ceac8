// The incremental predictors inside a whole simulated day.  One scaled-down
// FaasPlatform day of sibling functions (sharing, tiering and drift
// feedback on) runs twice: once with the controller's default predictor,
// once with the refit-from-scratch reference installed through
// predictor_factory.  Every controller decision must come out the same:
// ControllerStats, the latency summary and each DecisionJournal record.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../predict/refit_reference.hpp"
#include "faas/platform.hpp"
#include "obs/journal.hpp"
#include "workload/mix.hpp"
#include "workload/population.hpp"

namespace hotc {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct DayOutputs {
  ControllerStats stats;
  metrics::LatencySummary summary;
  std::vector<obs::DecisionRecord> journal;
  std::uint64_t failed = 0;
};

DayOutputs run_day(const PredictorFactory* factory) {
  workload::PopulationOptions pop;
  pop.functions = 24;
  pop.horizon = hours(1);
  pop.seed = 17;
  const auto population = workload::FunctionPopulation::generate(pop);
  const auto mix = workload::ConfigMix::sibling_functions(pop.functions, 5);

  obs::DecisionJournal journal(1 << 14);
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.hotc.limits.max_live = 6;  // below the function count: pressure
  opt.hotc.enable_sharing = true;
  opt.hotc.tiering.enabled = true;
  opt.hotc.tiering.store.capacity_bytes = gib(1);
  opt.hotc.enable_drift_detection = true;
  // A detector sensitive enough to restart predictors mid-day, so the
  // restart path and the donation mute are part of the comparison.
  opt.hotc.drift.delta = 0.1;
  opt.hotc.drift.threshold = 2.0;
  opt.hotc.journal = &journal;
  if (factory != nullptr) opt.hotc.predictor_factory = *factory;
  faas::FaasPlatform platform(opt);

  DayOutputs out;
  out.summary = platform.run(population.arrivals(), mix).summary();
  out.stats = platform.hotc_controller()->stats();
  out.journal = journal.snapshot();
  out.failed = platform.failed_requests();
  return out;
}

void expect_same_stats(const ControllerStats& a, const ControllerStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.reuses, b.reuses);
  EXPECT_EQ(a.donor_lookups, b.donor_lookups);
  EXPECT_EQ(a.donor_hits, b.donor_hits);
  EXPECT_EQ(a.respec_rejected, b.respec_rejected);
  EXPECT_EQ(bits(a.donor_respec_seconds), bits(b.donor_respec_seconds));
  EXPECT_EQ(bits(a.cold_start_seconds), bits(b.cold_start_seconds));
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.prewarm_launches, b.prewarm_launches);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.drift_restarts, b.drift_restarts);
  EXPECT_EQ(bits(a.idle_container_seconds), bits(b.idle_container_seconds));
}

void expect_same_summary(const metrics::LatencySummary& a,
                         const metrics::LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.cold_count, b.cold_count);
  for (const auto field :
       {&metrics::LatencySummary::mean_ms, &metrics::LatencySummary::min_ms,
        &metrics::LatencySummary::max_ms, &metrics::LatencySummary::p50_ms,
        &metrics::LatencySummary::p90_ms, &metrics::LatencySummary::p99_ms,
        &metrics::LatencySummary::p999_ms,
        &metrics::LatencySummary::cold_mean_ms,
        &metrics::LatencySummary::warm_mean_ms}) {
    EXPECT_EQ(bits(a.*field), bits(b.*field));
  }
}

void expect_same_record(const obs::DecisionRecord& a,
                        const obs::DecisionRecord& b) {
  EXPECT_EQ(a.tick, b.tick);
  EXPECT_EQ(a.key_hash, b.key_hash);
  EXPECT_EQ(a.key_id, b.key_id);
  EXPECT_EQ(bits(a.demand), bits(b.demand));
  EXPECT_EQ(bits(a.smoothed), bits(b.smoothed));
  EXPECT_EQ(bits(a.forecast), bits(b.forecast));
  EXPECT_EQ(a.markov_region, b.markov_region);
  EXPECT_EQ(a.have, b.have);
  EXPECT_EQ(a.available, b.available);
  EXPECT_EQ(a.headroom, b.headroom);
  EXPECT_EQ(a.prewarms, b.prewarms);
  EXPECT_EQ(a.retires, b.retires);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.donations, b.donations);
  EXPECT_EQ(a.flags, b.flags);
}

TEST(PredictorExactness, DayWithIncrementalPredictorMatchesRefitReference) {
  const DayOutputs got = run_day(nullptr);
  const PredictorFactory refit = [] {
    return std::make_unique<predict::reference::RefitHybrid>();
  };
  const DayOutputs want = run_day(&refit);

  // The day must exercise what the comparison is about.
  ASSERT_EQ(got.failed, 0u);
  ASSERT_GT(got.summary.count, 1000u);
  ASSERT_GT(got.stats.donor_hits, 0u);
  ASSERT_GT(got.stats.evicted, 0u);
  ASSERT_GT(got.stats.drift_restarts, 0u);
  ASSERT_GT(got.journal.size(), 1000u);

  expect_same_stats(got.stats, want.stats);
  expect_same_summary(got.summary, want.summary);
  EXPECT_EQ(got.failed, want.failed);
  ASSERT_EQ(got.journal.size(), want.journal.size());
  for (std::size_t i = 0; i < got.journal.size(); ++i) {
    SCOPED_TRACE("journal record " + std::to_string(i));
    expect_same_record(got.journal[i], want.journal[i]);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace hotc
