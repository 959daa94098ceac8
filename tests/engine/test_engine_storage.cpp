// ContainerEngine and VolumeManager store their records by id in a slab
// whose slots are recycled.  A seeded walk of launch / exec / clean /
// demote / restore / stop over more containers than are ever live at once
// reuses slots many times; after every step the engine must agree with the
// test's own ledger: stopped and never-issued ids find nothing, a live id
// finds its own container (never a slot's earlier or later tenant), the
// counts and byte sums match a recount, and a destroyed volume is unknown.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/rng.hpp"
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

/// What the test knows about one container it created.
struct Known {
  ContainerState state = ContainerState::kIdle;
  VolumeId volume = 0;
  Bytes dirty = 0;             // bytes written since the last wipe
  Bytes checkpoint_image = 0;  // while Checkpointed
};

class EngineStorageTest : public ::testing::Test {
 protected:
  EngineStorageTest() : engine_(sim_, HostProfile::server()) {
    engine_.preload_image(python_spec().image);
    app_ = apps::qr_encoder();
    app_.volume_writes = mib(3);
  }

  /// Ids of known containers in `state`, in id order.
  std::vector<ContainerId> in_state(ContainerState state) const {
    std::vector<ContainerId> out;
    for (const auto& [id, k] : known_) {
      if (k.state == state) out.push_back(id);
    }
    return out;
  }

  void launch() {
    std::optional<ContainerId> id;
    engine_.launch(python_spec(), [&id](Result<LaunchReport> r) {
      ASSERT_TRUE(r.ok());
      id = r.value().container;
    });
    sim_.run();
    ASSERT_TRUE(id.has_value());
    const Container* c = engine_.find(*id);
    ASSERT_NE(c, nullptr);
    known_[*id] = Known{ContainerState::kIdle, c->volume, 0, 0};
  }

  void exec(ContainerId id) {
    bool ok = false;
    engine_.exec(id, app_, [&ok](Result<ExecReport> r) { ok = r.ok(); });
    sim_.run();
    ASSERT_TRUE(ok);
    known_[id].dirty += app_.volume_writes;
  }

  void clean(ContainerId id) {
    bool ok = false;
    engine_.clean(id, [&ok](Result<bool> r) { ok = r.ok(); });
    sim_.run();
    ASSERT_TRUE(ok);
    known_[id].dirty = 0;
  }

  void demote(ContainerId id) {
    Bytes image = 0;
    engine_.demote(id, [&image](Result<ContainerEngine::DemoteReport> r) {
      ASSERT_TRUE(r.ok());
      image = r.value().image_size;
    });
    sim_.run();
    ASSERT_GT(image, 0);
    known_[id].state = ContainerState::kCheckpointed;
    known_[id].checkpoint_image = image;
  }

  void restore(ContainerId id) {
    bool ok = false;
    engine_.restore_container(id,
                              [&ok](Result<LaunchReport> r) { ok = r.ok(); });
    sim_.run();
    ASSERT_TRUE(ok);
    known_[id].state = ContainerState::kIdle;
    known_[id].checkpoint_image = 0;
  }

  void stop(ContainerId id) {
    bool ok = false;
    engine_.stop_and_remove(id, [&ok](Result<bool> r) { ok = r.ok(); });
    sim_.run();
    ASSERT_TRUE(ok);
    known_[id].state = ContainerState::kRemoved;
    known_[id].dirty = 0;
  }

  /// Every id ever issued, and ids never issued, against the ledger; the
  /// engine's counts and sums against a recount.
  void expect_agrees() {
    std::size_t idle = 0;
    std::size_t checkpointed = 0;
    Bytes disk = 0;
    Bytes dirty = 0;
    for (const auto& [id, k] : known_) {
      const Container* c = engine_.find(id);
      if (k.state == ContainerState::kRemoved) {
        EXPECT_EQ(c, nullptr) << "stopped container " << id << " still found";
        continue;
      }
      ASSERT_NE(c, nullptr) << "live container " << id << " not found";
      EXPECT_EQ(c->id, id) << "a slot answered for another id";
      EXPECT_EQ(c->state, k.state);
      EXPECT_EQ(c->volume, k.volume);
      EXPECT_EQ(engine_.volumes().dirty_bytes(k.volume).value_or(-1),
                k.dirty);
      dirty += k.dirty;
      if (k.state == ContainerState::kIdle) ++idle;
      if (k.state == ContainerState::kCheckpointed) {
        ++checkpointed;
        disk += k.checkpoint_image;
      }
    }
    EXPECT_EQ(engine_.find(0), nullptr);
    EXPECT_EQ(engine_.find(engine_.launches() + 1), nullptr);
    EXPECT_EQ(engine_.find(engine_.launches() + 1000), nullptr);
    EXPECT_EQ(engine_.live_count(), idle);  // nothing else is in flight
    EXPECT_EQ(engine_.idle_count(), idle);
    EXPECT_EQ(engine_.busy_count(), 0u);
    EXPECT_EQ(engine_.checkpointed_count(), checkpointed);
    EXPECT_EQ(engine_.checkpointed_disk_used(), disk);
    EXPECT_EQ(engine_.volumes().total_dirty_bytes(), dirty);
    EXPECT_EQ(engine_.volumes().volume_count(), idle + checkpointed);
  }

  sim::Simulator sim_;
  ContainerEngine engine_;
  AppModel app_;
  std::map<ContainerId, Known> known_;
};

TEST_F(EngineStorageTest, SeededLifecycleWalkReusesSlotsAndAgrees) {
  constexpr std::size_t kMaxLive = 12;
  Rng rng(20211);
  for (int step = 0; step < 1500; ++step) {
    const auto idle = in_state(ContainerState::kIdle);
    const auto parked = in_state(ContainerState::kCheckpointed);
    const std::size_t live = idle.size() + parked.size();
    const auto pick = [&rng](const std::vector<ContainerId>& ids) {
      return ids[rng.index(ids.size())];
    };
    switch (rng.index(7)) {
      case 0:
        if (live < kMaxLive) launch();
        break;
      case 1:
      case 2:
        if (!idle.empty()) exec(pick(idle));
        break;
      case 3:
        if (!idle.empty()) clean(pick(idle));
        break;
      case 4:
        if (!idle.empty()) demote(pick(idle));
        break;
      case 5:
        if (!parked.empty()) restore(pick(parked));
        break;
      case 6:
        if (live > 0) {
          std::vector<ContainerId> all = idle;
          all.insert(all.end(), parked.begin(), parked.end());
          stop(pick(all));
        }
        break;
    }
    if (HasFatalFailure()) return;
    expect_agrees();
    if (HasFailure()) {
      ADD_FAILURE() << "first disagreement after step " << step;
      return;
    }
  }
  // Far more containers than were ever live at once: slots were reused.
  EXPECT_GE(engine_.launches(), 64u);
  EXPECT_GE(in_state(ContainerState::kRemoved).size(), 64u - kMaxLive);
}

TEST_F(EngineStorageTest, DestroyedVolumesAreUnknown) {
  std::vector<VolumeId> destroyed;
  for (int round = 0; round < 80; ++round) {
    launch();
    const ContainerId id = known_.rbegin()->first;
    exec(id);
    destroyed.push_back(known_[id].volume);
    stop(id);
  }
  VolumeManager& volumes = engine_.volumes();
  EXPECT_EQ(volumes.volume_count(), 0u);
  for (const VolumeId v : destroyed) {
    const auto w = volumes.write(v, 1);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error().code, "volume.unknown");
    const auto d = volumes.dirty_bytes(v);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.error().code, "volume.unknown");
    const auto wiped = volumes.wipe_and_remount(v);
    ASSERT_FALSE(wiped.ok());
    EXPECT_EQ(wiped.error().code, "volume.unknown");
  }
  // A fresh volume takes a recycled slot under a new id; the old ids stay
  // unknown.
  const Volume fresh = volumes.create();
  EXPECT_TRUE(volumes.write(fresh.id, 5).ok());
  EXPECT_EQ(volumes.dirty_bytes(fresh.id).value_or(-1), 5);
  for (const VolumeId v : destroyed) {
    EXPECT_FALSE(volumes.dirty_bytes(v).ok());
  }
}

}  // namespace
}  // namespace hotc::engine
