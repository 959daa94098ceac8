#include "faas/backend.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "engine/app.hpp"

namespace hotc::faas {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

class BackendTest : public ::testing::Test {
 protected:
  BackendTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(BackendTest, ColdStartBackendAlwaysCold) {
  ColdStartBackend backend(engine_);
  const auto app = engine::apps::qr_encoder();
  int cold = 0;
  for (int i = 0; i < 3; ++i) {
    backend.dispatch(python_spec(), app, [&](Result<RequestOutcome> r) {
      ASSERT_TRUE(r.ok());
      if (r.value().cold()) ++cold;
      EXPECT_GT(r.value().startup, kZeroDuration);
    });
    sim_.run();
  }
  EXPECT_EQ(cold, 3);
  EXPECT_EQ(backend.cold_starts(), 3u);
  // Nothing lingers.
  EXPECT_EQ(engine_.live_count(), 0u);
}

TEST_F(BackendTest, KeepAliveReusesWithinWindow) {
  KeepAliveBackend backend(engine_, minutes(15));
  const auto app = engine::apps::qr_encoder();
  std::optional<RequestOutcome> first;
  std::optional<RequestOutcome> second;
  backend.dispatch(python_spec(), app,
                   [&](Result<RequestOutcome> r) { first = r.value(); });
  // run_until, not run(): run() would also drain the keep-alive expiry
  // timer, destroying exactly the state under test.
  sim_.run_until(sim_.now() + minutes(1));
  backend.dispatch(python_spec(), app,
                   [&](Result<RequestOutcome> r) { second = r.value(); });
  sim_.run_until(sim_.now() + minutes(1));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->cold());
  EXPECT_FALSE(second->cold());
  EXPECT_EQ(second->container, first->container);
  EXPECT_EQ(backend.cold_starts(), 1u);
}

TEST_F(BackendTest, KeepAliveExpiresAfterWindow) {
  KeepAliveBackend backend(engine_, minutes(15));
  const auto app = engine::apps::qr_encoder();
  backend.dispatch(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run_until(sim_.now() + minutes(1));
  EXPECT_EQ(backend.idle_containers(), 1u);
  // Let the keep-alive timer fire.
  sim_.run_until(sim_.now() + minutes(20));
  EXPECT_EQ(backend.idle_containers(), 0u);
  EXPECT_EQ(engine_.live_count(), 0u);

  std::optional<RequestOutcome> later;
  backend.dispatch(python_spec(), app,
                   [&](Result<RequestOutcome> r) { later = r.value(); });
  sim_.run_until(sim_.now() + minutes(1));
  ASSERT_TRUE(later.has_value());
  EXPECT_TRUE(later->cold());  // periodic cold start, as the paper criticises
  EXPECT_EQ(backend.cold_starts(), 2u);
}

TEST_F(BackendTest, KeepAliveTimerResetsOnReuse) {
  KeepAliveBackend backend(engine_, minutes(10));
  const auto app = engine::apps::qr_encoder();
  backend.dispatch(python_spec(), app, [](Result<RequestOutcome>) {});
  // Touch the container at minute 8, then check it survives to minute 15.
  sim_.run_until(sim_.now() + minutes(8));
  backend.dispatch(python_spec(), app, [](Result<RequestOutcome>) {});
  sim_.run_until(sim_.now() + minutes(7));
  EXPECT_EQ(backend.idle_containers(), 1u);
  EXPECT_EQ(backend.cold_starts(), 1u);
}

TEST_F(BackendTest, KeepAliveAccumulatesIdleSeconds) {
  KeepAliveBackend backend(engine_, minutes(15));
  backend.dispatch(python_spec(), engine::apps::qr_encoder(),
                   [](Result<RequestOutcome>) {});
  sim_.run_until(sim_.now() + minutes(30));
  EXPECT_NEAR(backend.idle_container_seconds(), 15.0 * 60.0, 5.0);
}

TEST_F(BackendTest, HotCBackendReusesImmediately) {
  ControllerOptions opt;
  HotCBackend backend(engine_, opt);
  const auto app = engine::apps::qr_encoder();
  std::optional<RequestOutcome> first;
  std::optional<RequestOutcome> second;
  backend.dispatch(python_spec(), app,
                   [&](Result<RequestOutcome> r) { first = r.value(); });
  sim_.run();
  backend.dispatch(python_spec(), app,
                   [&](Result<RequestOutcome> r) { second = r.value(); });
  sim_.run();
  EXPECT_TRUE(first->cold());
  EXPECT_FALSE(second->cold());
  EXPECT_EQ(backend.cold_starts(), 1u);
}

TEST_F(BackendTest, PeriodicWarmupKeepsInstanceWarm) {
  PeriodicWarmupBackend backend(engine_, minutes(5), minutes(15));
  const auto app = engine::apps::qr_encoder();
  backend.register_warmup(python_spec(), engine::apps::random_number(),
                          hours(1));
  // After 40+ minutes of only pings, a real request between two ping
  // instants should be warm.
  sim_.run_until(minutes(42));
  std::optional<RequestOutcome> real;
  backend.dispatch(python_spec(), app,
                   [&](Result<RequestOutcome> r) { real = r.value(); });
  sim_.run_until(sim_.now() + minutes(1));
  ASSERT_TRUE(real.has_value());
  EXPECT_FALSE(real->cold());
  EXPECT_GE(backend.warmup_pings(), 7u);
  // The pings themselves cost container time — that is the waste the
  // paper attributes to this strategy.
  EXPECT_EQ(backend.cold_starts(), 1u);  // only the very first ping
}

TEST_F(BackendTest, BackendNamesDescriptive) {
  ColdStartBackend cold(engine_);
  KeepAliveBackend ka(engine_, minutes(15));
  EXPECT_EQ(cold.name(), "cold-always");
  EXPECT_NE(ka.name().find("15"), std::string::npos);
}

}  // namespace
}  // namespace hotc::faas
