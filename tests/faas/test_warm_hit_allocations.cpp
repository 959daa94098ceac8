// The simulated request path allocates nothing in steady state.  After a
// warm-up, sequential warm hits and sequential donor conversions through
// HotCController::handle and through Gateway::submit -> HotCBackend make no
// heap allocation, and neither do ShardedRuntimePool::select_victim over a
// populated pool and CheckpointStore admit/take cycles.  A whole simulated
// day stays under a per-request allocation budget.
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
#include "faas/platform.hpp"
#include "hotc/controller.hpp"
#include "pool/sharded_pool.hpp"
#include "predict/baselines.hpp"
#include "sim/simulator.hpp"
#include "snapshot/checkpoint_store.hpp"
#include "workload/population.hpp"

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
/// Allocations per request inside FaasPlatform::run over the sibling day
/// below.  It measures 0.56 (1683 for 3022 requests), against 1.18 while
/// the miss paths nested closures and a donor conversion allocated 12
/// times.  Most of what remains is per function (its image, its
/// predictor) or per launch, demotion and restore, whose engine
/// completions keep their closures.
constexpr double kDayBudget = 0.6;

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

/// A sibling of python_spec(): the same compatibility class under another
/// runtime key, so either converts into the other.
spec::RunSpec sibling_spec() {
  spec::RunSpec s = python_spec();
  s.env["MODEL"] = "large";
  return s;
}

/// Sharing on, with a zero forecast and no prewarm or retire: an adaptive
/// tick nominates every key's idle runtime as a donor and changes nothing
/// else, so each request converts the other key's runtime.
ControllerOptions donor_options() {
  ControllerOptions opt;
  opt.enable_sharing = true;
  opt.enable_prewarm = false;
  opt.enable_retire = false;
  opt.predictor_factory = [] {
    return std::make_unique<predict::ConstantPredictor>(0.0);
  };
  return opt;
}

class DonorConversionAllocations : public WarmHitAllocations {
 protected:
  /// Alternate the two keys, ticking between requests, and check that
  /// every measured request was a conversion that allocated nothing (the
  /// ticks are not counted).
  template <typename Serve>
  void alternate(HotCController& controller, Serve serve) {
    const engine::FunctionHandle* fns[] = {&engine_.prepare(python_spec()),
                                           &engine_.prepare(sibling_spec())};
    std::uint64_t allocations = 0;
    std::uint64_t donor_hits = 0;
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      controller.adaptive_tick();
      const std::uint64_t hits_before = controller.stats().donor_hits;
      const std::uint64_t before = g_allocations.load();
      serve(*fns[i % 2]);
      sim_.run();
      if (i < kWarmup) continue;
      allocations += g_allocations.load() - before;
      donor_hits += controller.stats().donor_hits - hits_before;
    }
    EXPECT_EQ(donor_hits, static_cast<std::uint64_t>(kMeasured));
    EXPECT_EQ(allocations, 0u)
        << "per conversion: " << static_cast<double>(allocations) / kMeasured;
  }
};

TEST_F(DonorConversionAllocations, ControllerHandle) {
  HotCController controller(engine_, donor_options());
  alternate(controller, [&](const engine::FunctionHandle& fn) {
    controller.handle(fn, app_, [](Result<RequestOutcome> r) {
      EXPECT_TRUE(r.ok());
    });
  });
}

TEST_F(DonorConversionAllocations, GatewayToHotCBackend) {
  faas::HotCBackend backend(engine_, donor_options());
  faas::Gateway gateway(sim_, backend);
  std::uint64_t next_id = 1;
  alternate(backend.controller(), [&](const engine::FunctionHandle& fn) {
    gateway.submit(next_id++, 0, fn, app_,
                   [](Result<faas::CompletedRequest> r) {
                     EXPECT_TRUE(r.ok());
                   });
  });
}

TEST(CheckpointStoreAllocations, SteadyAdmitTakeCycles) {
  snapshot::CheckpointStore store;
  const auto cycle = [&store](int round) {
    for (spec::KeyId key = 1; key <= 16; ++key) {
      snapshot::SnapshotMeta meta;
      meta.key = key;
      meta.tenant = key % 4;
      meta.container = static_cast<std::uint64_t>(round) * 16 + key;
      meta.bytes = mib(64);
      meta.restore_estimate_s = 0.05;
      meta.cold_estimate_s = 0.5;
      EXPECT_TRUE(store.admit(meta, milliseconds(round)).accepted);
    }
    for (spec::KeyId key = 1; key <= 16; ++key) {
      EXPECT_TRUE(store.take(key, milliseconds(round)).has_value());
    }
  };
  // The warm-up grows the stripes' slabs and indexes to their peak (and,
  // in lock-rank audit builds, the per-thread held-lock list).
  cycle(0);
  const std::uint64_t before = g_allocations.load();
  for (int round = 1; round <= kMeasured; ++round) cycle(round);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_EQ(allocations, 0u) << "per cycle: "
                             << static_cast<double>(allocations) / kMeasured;
}

TEST(SimulatedDayAllocations, SiblingDayStaysUnderBudget) {
  // The golden_sim_day_replay day, seed 1: 1 h, 40 sibling functions,
  // max_live 8, sharing and tiering on.
  workload::PopulationOptions popt;
  popt.functions = 40;
  popt.horizon = hours(1);
  popt.seed = 1;
  const auto population = workload::FunctionPopulation::generate(popt);
  const workload::ArrivalList arrivals = population.arrivals();
  const auto mix = workload::ConfigMix::sibling_functions(popt.functions, 5);
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.hotc.limits.max_live = 8;
  opt.hotc.enable_sharing = true;
  opt.hotc.tiering.enabled = true;
  opt.hotc.tiering.store.capacity_bytes = gib(1);
  faas::FaasPlatform platform(opt);

  const std::uint64_t before = g_allocations.load();
  const metrics::LatencyRecorder latencies = platform.run(arrivals, mix);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_GT(arrivals.size(), 0u);
  const double per_request = static_cast<double>(allocations) /
                             static_cast<double>(arrivals.size());
  EXPECT_LT(per_request, kDayBudget) << allocations << " allocations for "
                                     << arrivals.size() << " requests";
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
