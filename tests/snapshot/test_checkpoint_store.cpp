// CheckpointStore: quota enforcement, benefit-density eviction order and
// the conservation identity demotes == restores + evictions + entries.
#include "snapshot/checkpoint_store.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "engine/app.hpp"
#include "hotc/controller.hpp"
#include "obs/metrics.hpp"
#include "predict/baselines.hpp"

namespace hotc::snapshot {
namespace {

SnapshotMeta meta(spec::KeyId key, std::uint64_t container, Bytes bytes,
                  double restore_s = 0.1, double cold_s = 1.0,
                  std::uint64_t tenant = 1) {
  SnapshotMeta m;
  m.key = key;
  m.tenant = tenant;
  m.container = container;
  m.bytes = bytes;
  m.restore_estimate_s = restore_s;
  m.cold_estimate_s = cold_s;
  return m;
}

/// The store identity that the bench gates at quiescence: everything that
/// ever entered either left (restore or eviction) or is still resident.
void expect_conserved(const CheckpointStore& store) {
  EXPECT_EQ(store.demotes(),
            store.restores() + store.evictions() + store.entries());
}

TEST(CheckpointStore, AdmitThenTakeRoundTrips) {
  CheckpointStore store;
  const auto r = store.admit(meta(7, 42, mib(3)), seconds(1));
  EXPECT_TRUE(r.accepted);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(store.total_bytes(), mib(3));
  EXPECT_EQ(store.demotes(), 1u);

  const auto snap = store.take(7, seconds(2));
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->container, 42u);
  EXPECT_EQ(snap->bytes, mib(3));
  EXPECT_EQ(store.restores(), 1u);
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);

  // take() consumes: the second lookup misses.
  EXPECT_FALSE(store.take(7, seconds(3)).has_value());
  expect_conserved(store);
}

TEST(CheckpointStore, PeekDoesNotConsume) {
  CheckpointStore store;
  store.admit(meta(7, 42, mib(1)), seconds(1));
  EXPECT_TRUE(store.peek(7, seconds(2)).has_value());
  EXPECT_TRUE(store.peek(7, seconds(3)).has_value());
  EXPECT_EQ(store.restores(), 0u);
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_TRUE(store.take(7, seconds(4)).has_value());
  expect_conserved(store);
}

TEST(CheckpointStore, TakeReturnsNewestFirst) {
  CheckpointStore store;
  store.admit(meta(7, 1, mib(1)), seconds(1));
  store.admit(meta(7, 2, mib(1)), seconds(2));
  // Newest snapshot first (the chain head), then the older one.
  EXPECT_EQ(store.take(7, seconds(3))->container, 2u);
  EXPECT_EQ(store.take(7, seconds(4))->container, 1u);
  EXPECT_FALSE(store.take(7, seconds(5)).has_value());
}

TEST(CheckpointStore, PerKeyQuotaEvictsTheKeysOldest) {
  CheckpointStore::Options opt;
  opt.per_key_bytes = mib(2);
  CheckpointStore store(opt);
  EXPECT_TRUE(store.admit(meta(7, 1, mib(1)), seconds(1)).accepted);
  EXPECT_TRUE(store.admit(meta(7, 2, mib(1)), seconds(2)).accepted);

  // A third snapshot overflows the key's quota: its *oldest* dump goes.
  const auto r = store.admit(meta(7, 3, mib(1)), seconds(3));
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].container, 1u);
  EXPECT_LE(store.key_bytes(7), opt.per_key_bytes);
  EXPECT_EQ(store.evictions(), 1u);

  // Another key is untouched by the first key's quota.
  EXPECT_TRUE(store.admit(meta(8, 4, mib(1)), seconds(4)).evicted.empty());
  expect_conserved(store);
}

TEST(CheckpointStore, PerTenantQuotaEvictsWithinTheTenantOnly) {
  CheckpointStore::Options opt;
  opt.per_tenant_bytes = mib(2);
  CheckpointStore store(opt);
  store.admit(meta(1, 1, mib(1), 0.1, 1.0, /*tenant=*/100), seconds(1));
  store.admit(meta(2, 2, mib(1), 0.1, 1.0, /*tenant=*/100), seconds(2));
  store.admit(meta(3, 3, mib(1), 0.1, 1.0, /*tenant=*/200), seconds(3));

  // Tenant 100 is full; admitting more of it evicts tenant 100, not 200.
  const auto r =
      store.admit(meta(4, 4, mib(1), 0.1, 1.0, /*tenant=*/100), seconds(4));
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].tenant, 100u);

  const auto occupancy = store.tenant_occupancy();
  for (const auto& o : occupancy) {
    if (o.tenant == 100u) {
      EXPECT_LE(o.bytes, opt.per_tenant_bytes);
    }
    if (o.tenant == 200u) {
      EXPECT_EQ(o.bytes, mib(1));
    }
  }
  expect_conserved(store);
}

TEST(CheckpointStore, BudgetEvictsLowestBenefitDensityFirst) {
  CheckpointStore::Options opt;
  opt.capacity_bytes = mib(3);
  CheckpointStore store(opt);
  // Same size, different cold-start savings: container 1 saves the least
  // per byte, so it is the first to go when the budget overflows.
  store.admit(meta(1, 1, mib(1), 0.1, /*cold_s=*/0.2), seconds(1));
  store.admit(meta(2, 2, mib(1), 0.1, /*cold_s=*/2.0), seconds(2));
  store.admit(meta(3, 3, mib(1), 0.1, /*cold_s=*/5.0), seconds(3));

  const auto r = store.admit(meta(4, 4, mib(1), 0.1, 3.0), seconds(4));
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].container, 1u);
  EXPECT_LE(store.total_bytes(), opt.capacity_bytes);
  expect_conserved(store);
}

TEST(CheckpointStore, LruBreaksBenefitDensityTies) {
  CheckpointStore::Options opt;
  opt.capacity_bytes = mib(2);
  CheckpointStore store(opt);
  // Identical economics: the least-recently-accessed snapshot loses.
  store.admit(meta(1, 1, mib(1)), seconds(1));
  store.admit(meta(2, 2, mib(1)), seconds(2));
  // Touch key 1 so key 2 becomes the LRU entry.
  EXPECT_TRUE(store.peek(1, seconds(10)).has_value());

  const auto r = store.admit(meta(3, 3, mib(1)), seconds(11));
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].container, 2u);
}

TEST(CheckpointStore, OversizedAdmissionsAreRejectedUpFront) {
  CheckpointStore::Options opt;
  opt.capacity_bytes = mib(4);
  opt.per_key_bytes = mib(2);
  CheckpointStore store(opt);
  store.admit(meta(1, 1, mib(1)), seconds(1));

  // Larger than the per-key quota: rejected with nothing evicted.
  const auto r = store.admit(meta(2, 2, mib(3)), seconds(2));
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(store.rejected(), 1u);
  EXPECT_EQ(store.entries(), 1u);

  // An un-interned key can never be restored; rejected too.
  EXPECT_FALSE(
      store.admit(meta(spec::kNoKeyId, 3, mib(1)), seconds(3)).accepted);
  EXPECT_EQ(store.rejected(), 2u);
  expect_conserved(store);
}

TEST(CheckpointStore, DropContainerRemovesEveryMatchAndCountsEvictions) {
  CheckpointStore store;
  store.admit(meta(1, 42, mib(1)), seconds(1));
  store.admit(meta(2, 43, mib(1)), seconds(2));

  const auto dropped = store.drop_container(42);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].key, 1u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.take(1, seconds(3)).has_value());
  EXPECT_TRUE(store.take(2, seconds(4)).has_value());
  EXPECT_TRUE(store.drop_container(42).empty());
  expect_conserved(store);
}

TEST(CheckpointStore, TenantOccupancyAggregatesAcrossKeys) {
  CheckpointStore store;
  store.admit(meta(1, 1, mib(2), 0.1, 1.0, /*tenant=*/100), seconds(1));
  store.admit(meta(2, 2, mib(1), 0.1, 1.0, /*tenant=*/100), seconds(2));
  store.admit(meta(3, 3, mib(1), 0.1, 1.0, /*tenant=*/200), seconds(3));

  const auto occupancy = store.tenant_occupancy();
  ASSERT_EQ(occupancy.size(), 2u);
  // Sorted by bytes, descending.
  EXPECT_EQ(occupancy[0].tenant, 100u);
  EXPECT_EQ(occupancy[0].bytes, mib(3));
  EXPECT_EQ(occupancy[0].entries, 2u);
  EXPECT_EQ(occupancy[1].tenant, 200u);
  EXPECT_EQ(occupancy[1].entries, 1u);
}

/// The value of an unlabelled sample in a registry snapshot (-1: absent).
double sample_value(const obs::Registry& registry, const std::string& name) {
  for (const auto& s : registry.snapshot()) {
    if (s.name == name && s.labels.empty()) return s.value;
  }
  return -1.0;
}

TEST(CheckpointStore, MetricsMirrorTheCounters) {
  // The store's counters reach the registry through its owner, the
  // controller, whose collector reads them at snapshot time.
  // Declared first: the registry outlives every owner it collects from.
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  ControllerOptions opt;
  opt.registry = &registry;
  opt.tiering.enabled = true;
  // Room for two ordinary dumps (700 KiB resident + 2 MiB metadata each);
  // the per-key quota turns away the 5 MiB dump of a 3 MiB-resident
  // image, which the disk budget alone would admit.
  opt.tiering.store.capacity_bytes = mib(6);
  opt.tiering.store.per_key_bytes = mib(4);
  engine.registry().push(engine::make_image(
      spec::ImageRef{"bigstate", "1"}, engine::LanguageRuntime::kNative,
      mib(100), 2, mib(3)));
  // Forecast 0: every adaptive tick retires the pooled runtime, which
  // the tiering plan demotes into the store.
  opt.predictor_factory = [] {
    return std::make_unique<predict::ConstantPredictor>(0.0);
  };
  HotCController ctl(engine, opt);
  const auto spec_of = [](const std::string& image, int i) {
    spec::RunSpec s;
    s.image = spec::ImageRef{image, image == "python" ? "3.8" : "1"};
    s.network = spec::NetworkMode::kBridge;
    s.env["IDX"] = std::to_string(i);
    return s;
  };
  const auto serve_then_tick = [&](const spec::RunSpec& s) {
    engine.preload_image(s.image);
    ctl.handle(s, engine::apps::v3_app(), [](Result<RequestOutcome>) {});
    sim.run();
    ctl.adaptive_tick();
    sim.run();
  };
  serve_then_tick(spec_of("python", 1));
  serve_then_tick(spec_of("python", 2));
  serve_then_tick(spec_of("python", 3));  // evicts the oldest dump
  serve_then_tick(spec_of("bigstate", 4));  // oversized: rejected
  ctl.handle(spec_of("python", 3), engine::apps::v3_app(),
             [](Result<RequestOutcome>) {});  // restores its dump
  sim.run();

  const CheckpointStore& store = *ctl.checkpoint_store();
  EXPECT_EQ(sample_value(registry, "hotc_snapshot_demotes_total"), 3.0);
  EXPECT_EQ(sample_value(registry, "hotc_snapshot_restores_total"), 1.0);
  EXPECT_EQ(sample_value(registry, "hotc_snapshot_evictions_total"), 1.0);
  EXPECT_EQ(sample_value(registry, "hotc_snapshot_rejected_total"), 1.0);
  EXPECT_EQ(sample_value(registry, "hotc_snapshot_store_bytes"),
            static_cast<double>(store.total_bytes()));
  EXPECT_EQ(sample_value(registry, "hotc_snapshot_store_entries"),
            static_cast<double>(store.entries()));
  expect_conserved(store);
}

}  // namespace
}  // namespace hotc::snapshot
