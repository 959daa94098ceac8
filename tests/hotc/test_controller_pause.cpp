// Controller-level tests for the pause extension and fault resilience.
#include <gtest/gtest.h>

#include <optional>

#include "engine/app.hpp"
#include "hotc/controller.hpp"

namespace hotc {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

class ControllerPauseTest : public ::testing::Test {
 protected:
  ControllerPauseTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(ControllerPauseTest, StaleEntriesGetPaused) {
  ControllerOptions opt;
  opt.pause_idle_after = minutes(1);
  opt.enable_prewarm = false;
  opt.enable_retire = false;
  HotCController ctl(engine_, opt);
  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [](Result<RequestOutcome>) {});
  sim_.run();
  ASSERT_EQ(ctl.runtime_pool().total_available(), 1u);
  EXPECT_EQ(ctl.runtime_pool().paused_count(), 0u);

  sim_.run_until(sim_.now() + minutes(2));
  ctl.adaptive_tick();
  sim_.run();
  EXPECT_EQ(ctl.runtime_pool().paused_count(), 1u);
  EXPECT_EQ(engine_.idle_count(), 0u);  // it is Paused in the engine too
}

TEST_F(ControllerPauseTest, PausedHitResumesAndRuns) {
  ControllerOptions opt;
  opt.pause_idle_after = minutes(1);
  opt.enable_prewarm = false;
  opt.enable_retire = false;
  HotCController ctl(engine_, opt);
  const auto app = engine::apps::qr_encoder();

  std::optional<RequestOutcome> first;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { first = r.value(); });
  sim_.run();
  sim_.run_until(sim_.now() + minutes(2));
  ctl.adaptive_tick();
  sim_.run();
  ASSERT_EQ(ctl.runtime_pool().paused_count(), 1u);

  std::optional<RequestOutcome> warmish;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { warmish = r.value(); });
  sim_.run();
  ASSERT_TRUE(warmish.has_value());
  EXPECT_TRUE(warmish->reused);
  EXPECT_TRUE(warmish->resumed);
  // Resume adds latency over a hot hit, but stays below the cold start.
  EXPECT_GT(warmish->total, seconds_f(0.06));
  EXPECT_LT(warmish->total, first->total);
  EXPECT_EQ(ctl.runtime_pool().paused_count(), 0u);
}

TEST_F(ControllerPauseTest, PauseLoweredMemoryWatermark) {
  // Two identical runs, with and without pausing; the paused pool's
  // steady-state memory must be lower.
  auto run_with = [&](Duration pause_after) {
    sim::Simulator sim;
    engine::ContainerEngine eng(sim, engine::HostProfile::server());
    eng.preload_image(python_spec().image);
    ControllerOptions opt;
    opt.pause_idle_after = pause_after;
    opt.enable_prewarm = false;
    opt.enable_retire = false;
    HotCController ctl(eng, opt);
    // Ten distinct runtime types pooled, then left idle.
    for (int i = 0; i < 10; ++i) {
      auto s = python_spec();
      s.env["T"] = std::to_string(i);
      ctl.handle(s, engine::apps::qr_encoder(), [](Result<RequestOutcome>) {});
    }
    sim.run();
    sim.run_until(sim.now() + minutes(5));
    ctl.adaptive_tick();
    sim.run();
    return eng.memory_used();
  };
  const Bytes without_pause = run_with(kZeroDuration);
  const Bytes with_pause = run_with(minutes(1));
  EXPECT_LT(with_pause, without_pause);
}

TEST_F(ControllerPauseTest, HandlesExecCrashGracefully) {
  engine::FaultModel faults;
  faults.exec_crash_rate = 1.0;
  engine_.set_fault_model(faults);
  HotCController ctl(engine_, ControllerOptions{});
  bool failed = false;
  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [&](Result<RequestOutcome> r) { failed = !r.ok(); });
  sim_.run();
  EXPECT_TRUE(failed);
  // The crashed container was torn down, not pooled.
  EXPECT_EQ(ctl.runtime_pool().total_available(), 0u);
  EXPECT_EQ(engine_.live_count(), 0u);
}

TEST_F(ControllerPauseTest, RecoversAfterTransientCrashes) {
  engine::FaultModel faults;
  faults.exec_crash_rate = 0.5;
  faults.seed = 11;
  engine_.set_fault_model(faults);
  HotCController ctl(engine_, ControllerOptions{});
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 40; ++i) {
    ctl.handle(python_spec(), engine::apps::qr_encoder(),
               [&](Result<RequestOutcome> r) { r.ok() ? ++ok : ++failed; });
    sim_.run();
  }
  EXPECT_EQ(ok + failed, 40);
  EXPECT_GT(ok, 5);
  EXPECT_GT(failed, 5);
  // Accounting stayed balanced through the chaos.
  EXPECT_EQ(ctl.stats().requests, 40u);
  EXPECT_EQ(engine_.idle_count(), ctl.runtime_pool().total_available());
}

TEST_F(ControllerPauseTest, FailedColdLaunchFailsItsRequestOnly) {
  engine::FaultModel faults;
  faults.launch_failure_rate = 1.0;
  engine_.set_fault_model(faults);
  HotCController ctl(engine_, ControllerOptions{});
  std::optional<Error> error;
  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [&](Result<RequestOutcome> r) {
               if (!r.ok()) error = r.error();
             });
  sim_.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, "engine.launch_failed");

  // With the fault gone, the next request cold-starts and is served.
  engine_.set_fault_model(engine::FaultModel{});
  std::optional<RequestOutcome> served;
  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [&](Result<RequestOutcome> r) {
               if (r.ok()) served = r.value();
             });
  sim_.run();
  ASSERT_TRUE(served.has_value());
  EXPECT_TRUE(served->cold());
  EXPECT_EQ(ctl.stats().requests, 2u);
  EXPECT_EQ(ctl.stats().cold_starts, 2u);
  EXPECT_EQ(ctl.runtime_pool().total_available(), 1u);
  EXPECT_EQ(engine_.live_count(), 1u);
}

}  // namespace
}  // namespace hotc
