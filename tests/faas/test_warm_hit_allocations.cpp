// The simulated warm hit allocates nothing.  After a warm-up, sequential
// warm hits through HotCController::handle and through Gateway::submit ->
// HotCBackend make no heap allocation, and neither does
// ShardedRuntimePool::select_victim over a populated pool.
//
// The global operator new is replaced with a counting one, so this test
// is its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "engine/app.hpp"
#include "engine/engine.hpp"
#include "faas/backend.hpp"
#include "faas/gateway.hpp"
#include "hotc/controller.hpp"
#include "pool/sharded_pool.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hotc {
namespace {

constexpr int kWarmup = 20;
constexpr int kMeasured = 1000;

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  s.env["MODEL"] = "small";
  return s;
}

/// An app whose name outgrows the small-string buffer, so a per-request
/// copy of it would show up as an allocation.
engine::AppModel long_named_app() {
  engine::AppModel app = engine::apps::qr_encoder();
  app.name = "qr-encoder-with-a-long-application-name";
  return app;
}

class WarmHitAllocations : public ::testing::Test {
 protected:
  WarmHitAllocations() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
  const engine::AppModel app_ = long_named_app();
};

TEST_F(WarmHitAllocations, ControllerHandle) {
  HotCController controller(engine_, ControllerOptions{});
  const engine::FunctionHandle& fn = engine_.prepare(python_spec());
  std::uint64_t reused = 0;
  const auto serve = [&] {
    controller.handle(fn, app_, [&reused](Result<RequestOutcome> r) {
      if (r.ok() && r.value().reused) ++reused;
    });
    sim_.run();
  };
  for (int i = 0; i < kWarmup; ++i) serve();
  reused = 0;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kMeasured; ++i) serve();
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(reused, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(allocations, 0u) << "per warm hit: "
                             << static_cast<double>(allocations) / kMeasured;
}

TEST_F(WarmHitAllocations, GatewayToHotCBackend) {
  faas::HotCBackend backend(engine_, ControllerOptions{});
  faas::Gateway gateway(sim_, backend);
  const engine::FunctionHandle& fn = engine_.prepare(python_spec());
  std::uint64_t warm = 0;
  std::uint64_t next_id = 1;
  const auto serve = [&] {
    gateway.submit(next_id++, 0, fn, app_,
                   [&warm](Result<faas::CompletedRequest> r) {
                     if (r.ok() && !r.value().cold) ++warm;
                   });
    sim_.run();
  };
  for (int i = 0; i < kWarmup; ++i) serve();
  warm = 0;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kMeasured; ++i) serve();
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(warm, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(allocations, 0u) << "per warm hit: "
                             << static_cast<double>(allocations) / kMeasured;
}

TEST(ShardedPoolAllocations, SelectVictimOverSixteenShards) {
  pool::ShardedRuntimePool pool({}, 16);
  std::vector<spec::RuntimeKey> keys;
  for (int k = 0; k < 8; ++k) {
    spec::RunSpec s = python_spec();
    s.image = spec::ImageRef{"python", "3." + std::to_string(k)};
    keys.push_back(spec::RuntimeKey::from_spec(s));
  }
  engine::ContainerId id = 1;
  for (int i = 0; i < 64; ++i) {
    pool::PoolEntry e;
    e.id = id++;
    e.key = keys[static_cast<std::size_t>(i) % keys.size()];
    e.created_at = milliseconds(i);
    pool.add_available(e, milliseconds(i));
  }
  // One warm-up call: lock-rank audit builds grow their per-thread
  // held-lock list to the batch's size on first use.
  (void)pool.select_victim(pool::EvictionPolicy::kOldestFirst, nullptr);
  Rng rng(7);
  int found = 0;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kMeasured; ++i) {
    found += pool.select_victim(pool::EvictionPolicy::kOldestFirst, nullptr)
                 .has_value();
    found += pool.select_victim(pool::EvictionPolicy::kRandom, &rng)
                 .has_value();
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(found, 2 * kMeasured);
  EXPECT_EQ(allocations, 0u) << "per call: "
                             << static_cast<double>(allocations) /
                                    (2 * kMeasured);
}

}  // namespace
}  // namespace hotc
