// ContainerEngine's live / idle / busy / checkpointed counts are kept per
// state as containers move, not scanned.  These tests walk every lifecycle
// edge (launch, exec, clean, pause/resume, demote, restore, discard, stop,
// checkpoint-clone restore) plus injected launch failures and exec crashes,
// and after each step compare the counts both with the expected values and
// with a re-derivation from find() over every container ever created.
// HOTC_AUDIT builds additionally re-scan inside the engine after every
// transition and abort on a mismatch.
#include <gtest/gtest.h>

#include <optional>

#include "engine/app.hpp"
#include "engine/engine.hpp"
#include "sim/simulator.hpp"

namespace hotc::engine {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

struct Counts {
  std::size_t live = 0;
  std::size_t idle = 0;
  std::size_t busy = 0;
  std::size_t checkpointed = 0;
};

class EngineCountsTest : public ::testing::Test {
 protected:
  EngineCountsTest() : engine_(sim_, HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  /// Start a launch without running the simulator; the id is known once
  /// the container has been inserted (synchronously, Provisioning).
  void start_launch(std::optional<ContainerId>* out = nullptr) {
    engine_.launch(python_spec(), [out](Result<LaunchReport> r) {
      if (out != nullptr && r.ok()) *out = r.value().container;
    });
    seen_ = engine_.launches();
  }

  ContainerId launch_idle() {
    std::optional<ContainerId> id;
    start_launch(&id);
    sim_.run();
    EXPECT_TRUE(id.has_value());
    return id.value_or(0);
  }

  /// The counts re-derived from each container's reported state.  Ids are
  /// dense from 1, so every container ever created is probed.
  Counts scanned() const {
    Counts c;
    for (ContainerId id = 1; id <= seen_; ++id) {
      const Container* k = engine_.find(id);
      if (k == nullptr) continue;
      switch (k->state) {
        case ContainerState::kIdle:
          ++c.idle;
          ++c.live;
          break;
        case ContainerState::kBusy:
        case ContainerState::kCleaning:
          ++c.busy;
          ++c.live;
          break;
        case ContainerState::kProvisioning:
        case ContainerState::kPaused:
        case ContainerState::kStopping:
          ++c.live;
          break;
        case ContainerState::kCheckpointed:
          ++c.checkpointed;
          break;
        case ContainerState::kRemoved:
          break;
      }
    }
    return c;
  }

  void expect_counts(const Counts& want) {
    EXPECT_EQ(engine_.live_count(), want.live);
    EXPECT_EQ(engine_.idle_count(), want.idle);
    EXPECT_EQ(engine_.busy_count(), want.busy);
    EXPECT_EQ(engine_.checkpointed_count(), want.checkpointed);
    const Counts s = scanned();
    EXPECT_EQ(s.live, want.live);
    EXPECT_EQ(s.idle, want.idle);
    EXPECT_EQ(s.busy, want.busy);
    EXPECT_EQ(s.checkpointed, want.checkpointed);
  }

  sim::Simulator sim_;
  ContainerEngine engine_;
  std::uint64_t seen_ = 0;  // containers created so far (ids 1..seen_)
};

TEST_F(EngineCountsTest, LaunchExecCleanStop) {
  expect_counts({0, 0, 0, 0});
  start_launch();
  start_launch();
  expect_counts({2, 0, 0, 0});  // Provisioning: live, not idle or busy
  sim_.run();
  expect_counts({2, 2, 0, 0});

  const auto app = apps::qr_encoder();
  engine_.exec(1, app, [](Result<ExecReport>) {});
  expect_counts({2, 1, 1, 0});
  sim_.run();
  expect_counts({2, 2, 0, 0});

  engine_.clean(1, [](Result<bool>) {});
  expect_counts({2, 1, 1, 0});  // Cleaning counts as busy
  sim_.run();
  expect_counts({2, 2, 0, 0});

  engine_.stop_and_remove(2, [](Result<bool>) {});
  expect_counts({2, 1, 0, 0});  // Stopping is still live
  sim_.run();
  expect_counts({1, 1, 0, 0});
  EXPECT_EQ(engine_.find(2), nullptr);
}

TEST_F(EngineCountsTest, PauseAndResume) {
  const ContainerId id = launch_idle();
  engine_.pause(id, [](Result<bool>) {});
  sim_.run();
  expect_counts({1, 0, 0, 0});  // Paused: live, not available
  engine_.resume(id, [](Result<bool>) {});
  sim_.run();
  expect_counts({1, 1, 0, 0});
  engine_.pause(id, [](Result<bool>) {});
  sim_.run();
  engine_.stop_and_remove(id, [](Result<bool>) {});
  sim_.run();
  expect_counts({0, 0, 0, 0});
}

TEST_F(EngineCountsTest, DemoteRestoreDiscard) {
  const ContainerId a = launch_idle();
  const ContainerId b = launch_idle();
  engine_.demote(a, [](Result<ContainerEngine::DemoteReport>) {});
  engine_.demote(b, [](Result<ContainerEngine::DemoteReport>) {});
  sim_.run();
  expect_counts({0, 0, 0, 2});  // on disk, off the live cap

  engine_.restore_container(a, [](Result<LaunchReport>) {});
  sim_.run();
  expect_counts({1, 1, 0, 1});

  engine_.discard_checkpointed(b, [](Result<bool>) {});
  expect_counts({2, 1, 0, 0});  // off disk and Stopping: live until removed
  sim_.run();
  expect_counts({1, 1, 0, 0});
  EXPECT_EQ(engine_.find(b), nullptr);
}

TEST_F(EngineCountsTest, CheckpointCloneRestoreInsertsAContainer) {
  const ContainerId id = launch_idle();
  std::optional<ContainerEngine::CheckpointId> cp;
  engine_.checkpoint(id, [&](Result<ContainerEngine::CheckpointId> r) {
    if (r.ok()) cp = r.value();
  });
  sim_.run();
  ASSERT_TRUE(cp.has_value());
  expect_counts({1, 1, 0, 0});

  engine_.restore(*cp, [](Result<LaunchReport>) {});
  seen_ = engine_.launches();
  expect_counts({2, 1, 0, 0});  // the clone is Provisioning
  sim_.run();
  expect_counts({2, 2, 0, 0});
}

TEST_F(EngineCountsTest, InjectedLaunchFailuresLeaveNoCount) {
  FaultModel faults;
  faults.launch_failure_rate = 1.0;
  engine_.set_fault_model(faults);
  for (int i = 0; i < 3; ++i) start_launch();
  expect_counts({3, 0, 0, 0});
  sim_.run();
  EXPECT_EQ(engine_.injected_launch_failures(), 3u);
  expect_counts({0, 0, 0, 0});
}

TEST_F(EngineCountsTest, MixedFaultsKeepCountsInStep) {
  FaultModel faults;
  faults.launch_failure_rate = 0.3;
  faults.exec_crash_rate = 0.5;
  faults.seed = 7;
  engine_.set_fault_model(faults);
  for (int i = 0; i < 20; ++i) start_launch();
  sim_.run();
  const std::uint64_t failed = engine_.injected_launch_failures();
  ASSERT_GT(failed, 0u);
  ASSERT_LT(failed, 20u);
  const std::size_t up = 20 - failed;
  expect_counts({up, up, 0, 0});

  const auto app = apps::qr_encoder();
  std::size_t crashed = 0;
  for (ContainerId id = 1; id <= seen_; ++id) {
    if (engine_.find(id) == nullptr) continue;
    engine_.exec(id, app, [&](Result<ExecReport> r) {
      if (!r.ok()) ++crashed;
    });
  }
  expect_counts({up, 0, up, 0});
  sim_.run();
  EXPECT_GT(crashed, 0u);
  EXPECT_EQ(engine_.injected_exec_crashes(), crashed);
  expect_counts({up, up, 0, 0});  // a crash returns the container to Idle
}

}  // namespace
}  // namespace hotc::engine
