#include "hotc/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "engine/app.hpp"
#include "predict/baselines.hpp"

namespace hotc {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

spec::RunSpec node_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"node", "14"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

/// The journal's per-key records for one key, in tick order: the demand
/// each adaptive tick observed and the forecast it made.
std::vector<obs::DecisionRecord> key_records(
    const obs::DecisionJournal& journal, const spec::RuntimeKey& key) {
  std::vector<obs::DecisionRecord> out;
  for (const auto& rec : journal.snapshot()) {
    if ((rec.flags & obs::kJournalSummary) == 0 && rec.key_id == key.id()) {
      out.push_back(rec);
    }
  }
  return out;
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
    engine_.preload_image(node_spec().image);
  }

  HotCController make(ControllerOptions opt = {}) {
    return HotCController(engine_, std::move(opt));
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(ControllerTest, FirstRequestIsColdSecondReuses) {
  auto ctl = make();
  const auto app = engine::apps::qr_encoder();
  std::optional<RequestOutcome> first;
  std::optional<RequestOutcome> second;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { first = r.value(); });
  sim_.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->reused);
  EXPECT_GT(first->startup, kZeroDuration);

  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { second = r.value(); });
  sim_.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->reused);
  EXPECT_EQ(second->startup, kZeroDuration);
  EXPECT_LT(second->total, first->total);
  EXPECT_EQ(ctl.stats().cold_starts, 1u);
  EXPECT_EQ(ctl.stats().reuses, 1u);
}

TEST_F(ControllerTest, DifferentKeysDoNotShareContainers) {
  auto ctl = make();
  const auto app = engine::apps::qr_encoder();
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  std::optional<RequestOutcome> other;
  ctl.handle(node_spec(), app,
             [&](Result<RequestOutcome> r) { other = r.value(); });
  sim_.run();
  ASSERT_TRUE(other.has_value());
  EXPECT_FALSE(other->reused);
  EXPECT_EQ(ctl.stats().cold_starts, 2u);
}

TEST_F(ControllerTest, SubsetKeyReusesAcrossEnvDifferences) {
  ControllerOptions opt;
  opt.use_subset_key = true;
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  auto a = python_spec();
  a.env["VARIANT"] = "0";
  auto b = python_spec();
  b.env["VARIANT"] = "1";
  ctl.handle(a, app, [](Result<RequestOutcome>) {});
  sim_.run();
  std::optional<RequestOutcome> second;
  ctl.handle(b, app,
             [&](Result<RequestOutcome> r) { second = r.value(); });
  sim_.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->reused);  // env differs, subset key matches
}

TEST_F(ControllerTest, CleanupHappensOffCriticalPath) {
  auto ctl = make();
  const auto app = engine::apps::pdf_download();  // dirties the volume
  TimePoint response_at = kZeroDuration;
  ctl.handle(python_spec(), app, [&](Result<RequestOutcome>) {
    response_at = sim_.now();
  });
  sim_.run();
  // At response time the container was NOT yet back in the pool; by the
  // time the queue drained, cleanup returned it.
  EXPECT_GT(response_at, kZeroDuration);
  EXPECT_EQ(ctl.runtime_pool().total_available(), 1u);
  EXPECT_EQ(ctl.runtime_pool().stats().returns, 1u);
}

TEST_F(ControllerTest, ConcurrentRequestsGetSeparateContainers) {
  auto ctl = make();
  const auto app = engine::apps::tf_api_app();
  std::vector<RequestOutcome> outcomes;
  for (int i = 0; i < 3; ++i) {
    ctl.handle(python_spec(), app, [&](Result<RequestOutcome> r) {
      outcomes.push_back(r.value());
    });
  }
  sim_.run();
  ASSERT_EQ(outcomes.size(), 3u);
  // All three arrived before any container existed: all cold.
  for (const auto& o : outcomes) EXPECT_FALSE(o.reused);
  EXPECT_EQ(ctl.runtime_pool().total_available(), 3u);
}

TEST_F(ControllerTest, CapacityLimitEvictsOldest) {
  ControllerOptions opt;
  opt.limits.max_live = 2;
  opt.enable_prewarm = false;
  opt.enable_retire = false;
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::random_number();

  // Three different runtime types, sequentially; each lands in the pool.
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.handle(node_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  auto third = python_spec();
  third.env["X"] = "1";
  ctl.handle(third, app, [](Result<RequestOutcome>) {});
  sim_.run();
  EXPECT_EQ(engine_.live_count(), 3u);  // over the cap until the next check

  ctl.adaptive_tick();  // pressure check fires here
  sim_.run();
  EXPECT_LE(engine_.live_count(), 2u);
  EXPECT_GE(ctl.stats().evicted, 1u);
}

TEST_F(ControllerTest, AdaptiveTickObservesDemand) {
  obs::DecisionJournal journal;
  ControllerOptions opt;
  opt.journal = &journal;
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  const auto key = spec::RuntimeKey::from_spec(python_spec());
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  const auto demand = key_records(journal, key);
  ASSERT_EQ(demand.size(), 1u);
  EXPECT_DOUBLE_EQ(demand[0].demand, 1.0);  // peak concurrency was 1
  EXPECT_TRUE(ctl.current_forecast(key).has_value());
}

TEST_F(ControllerTest, PrewarmScalesPoolUp) {
  ControllerOptions opt;
  // Constant predictor always forecasts 3 warm containers.
  opt.predictor_factory = [] {
    return std::make_unique<predict::ConstantPredictor>(3.0);
  };
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  sim_.run();  // let the pre-warm launches finish
  EXPECT_EQ(ctl.runtime_pool().total_available(), 3u);
  EXPECT_GE(ctl.stats().prewarm_launches, 2u);
}

TEST_F(ControllerTest, PrewarmedContainerServesWarmRequest) {
  ControllerOptions opt;
  opt.predictor_factory = [] {
    return std::make_unique<predict::ConstantPredictor>(1.0);
  };
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  sim_.run();
  std::optional<RequestOutcome> warm;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { warm = r.value(); });
  sim_.run();
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->reused);
}

TEST_F(ControllerTest, RetireShrinksSurplus) {
  ControllerOptions opt;
  opt.predictor_factory = [] {
    return std::make_unique<predict::ConstantPredictor>(0.0);
  };
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  for (int i = 0; i < 3; ++i) {
    ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  }
  sim_.run();
  EXPECT_EQ(ctl.runtime_pool().total_available(), 3u);
  ctl.adaptive_tick();  // forecast 0 -> everything surplus
  sim_.run();
  EXPECT_EQ(ctl.runtime_pool().total_available(), 0u);
  EXPECT_EQ(engine_.live_count(), 0u);
  EXPECT_GE(ctl.stats().retired, 3u);
}

TEST_F(ControllerTest, IdleCapRetiresStaleContainers) {
  ControllerOptions opt;
  opt.idle_cap = minutes(1);
  opt.enable_prewarm = false;
  opt.enable_retire = false;
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ASSERT_EQ(ctl.runtime_pool().total_available(), 1u);
  // Jump past the idle cap and tick.
  sim_.run_until(sim_.now() + minutes(2));
  ctl.adaptive_tick();
  sim_.run();
  EXPECT_EQ(ctl.runtime_pool().total_available(), 0u);
}

TEST_F(ControllerTest, AdaptiveLoopRunsOnSchedule) {
  obs::DecisionJournal journal;
  ControllerOptions opt;
  opt.adaptive_interval = seconds(10);
  opt.journal = &journal;
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  const auto key = spec::RuntimeKey::from_spec(python_spec());
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  ctl.start_adaptive_loop(seconds(60));
  sim_.run();
  EXPECT_GE(key_records(journal, key).size(), 5u);
}

TEST_F(ControllerTest, LaunchFailureSurfacesAsError) {
  // Unknown image in strict registry mode.
  engine_.registry().set_synthesize_unknown(false);
  auto ctl = make();
  spec::RunSpec bad;
  bad.image = spec::ImageRef{"not-a-real-image", "v0"};
  bool failed = false;
  ctl.handle(bad, engine::apps::random_number(),
             [&](Result<RequestOutcome> r) { failed = !r.ok(); });
  sim_.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(ctl.runtime_pool().total_available(), 0u);
}

TEST_F(ControllerTest, ForecastHistoryParallelsDemand) {
  obs::DecisionJournal journal;
  ControllerOptions opt;
  opt.journal = &journal;
  auto ctl = make(std::move(opt));
  const auto key = spec::RuntimeKey::from_spec(python_spec());
  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  ctl.adaptive_tick();
  // Each tick's record pairs the demand it observed with the forecast it
  // made: one pair per tick, the last forecast the predictor's current one.
  const auto records = key_records(journal, key);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.size(), ctl.adaptive_ticks());
  EXPECT_DOUBLE_EQ(records.back().forecast,
                   std::max(0.0, ctl.current_forecast(key).value()));
}

TEST_F(ControllerTest, PredictionErrorMetricsPopulateAfterScoredTick) {
  obs::Registry reg;
  ControllerOptions opt;
  opt.registry = &reg;
  auto ctl = make(std::move(opt));
  const auto app = engine::apps::qr_encoder();
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();  // first tick: forecast made, nothing scored yet
  ctl.handle(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();  // second tick scores the first tick's forecast
  bool samples_seen = false;
  bool sum_seen = false;
  bool per_key_seen = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "hotc_controller_prediction_samples_total") {
      samples_seen = true;
      EXPECT_GE(s.value, 1.0);
    }
    if (s.name == "hotc_controller_prediction_abs_error_sum") {
      sum_seen = true;
      EXPECT_GE(s.value, 0.0);
    }
    if (s.name == "hotc_controller_prediction_abs_error") {
      per_key_seen = true;
      // Per-key gauge carries the runtime key hash as a label.
      EXPECT_NE(s.labels.find("key=\""), std::string::npos) << s.labels;
      EXPECT_GE(s.value, 0.0);
    }
  }
  EXPECT_TRUE(samples_seen);
  EXPECT_TRUE(sum_seen);
  EXPECT_TRUE(per_key_seen);
}

// Per-key state is stored in first-request order, but the adaptive tick
// visits keys in canonical-text order (spec::InternTextLess), as the
// text-ordered map it replaced did: the journal's per-tick records come
// out sorted by key text even when the keys were interned in another order.
TEST_F(ControllerTest, TickVisitsKeysInCanonicalTextOrder) {
  obs::DecisionJournal journal;
  ControllerOptions opt;
  opt.journal = &journal;
  auto ctl = make(std::move(opt));
  for (const char* func :
       {"tick-order-c", "tick-order-a", "tick-order-d", "tick-order-b"}) {
    spec::RunSpec s = python_spec();
    s.env["FUNC"] = func;
    ctl.handle(s, engine::apps::qr_encoder(), [](Result<RequestOutcome>) {});
  }
  sim_.run();
  ctl.adaptive_tick();

  std::vector<spec::KeyId> ids;
  for (const auto& rec : journal.snapshot()) {
    if ((rec.flags & obs::kJournalSummary) == 0 &&
        rec.tick == ctl.adaptive_ticks()) {
      ids.push_back(rec.key_id);
    }
  }
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end(), spec::InternTextLess{}));
  // First sight (the KeyId order) was not text order.
  EXPECT_FALSE(std::is_sorted(ids.begin(), ids.end()));
}

}  // namespace
}  // namespace hotc
