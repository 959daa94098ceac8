// Conservation auditing: the flow identity pooled == admitted − leased −
// removed must hold at every quiescent point of both pool flavours, and a
// seeded violation of any identity audit::verify() holds must be fatal,
// proving the auditor is not a no-op.
#include "pool/audit.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "pool/pool.hpp"
#include "pool/sharded_pool.hpp"

namespace hotc::pool {
namespace {

spec::RuntimeKey key_for(const std::string& image) {
  spec::RunSpec s;
  s.image = spec::ImageRef{image, "latest"};
  return spec::RuntimeKey::from_spec(s);
}

PoolEntry entry(engine::ContainerId id, const spec::RuntimeKey& key,
                TimePoint created) {
  PoolEntry e;
  e.id = id;
  e.key = key;
  e.created_at = created;
  return e;
}

TEST(PoolConservation, FreshPoolBalances) {
  RuntimePool pool;
  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.admitted, 0u);
  EXPECT_EQ(l.pooled, 0u);
}

TEST(PoolConservation, HoldsAcrossScriptedWorkload) {
  RuntimePool pool;
  const auto python = key_for("python");
  const auto node = key_for("node");

  pool.add_available(entry(1, python, seconds(0)), seconds(1));
  pool.add_available(entry(2, python, seconds(0)), seconds(1));
  pool.add_available(entry(3, node, seconds(0)), seconds(2));
  EXPECT_TRUE(pool.check_conservation().ok());

  ASSERT_TRUE(pool.acquire(python, seconds(3)).has_value());  // lease
  ASSERT_TRUE(pool.mark_paused(node, 3));
  ASSERT_TRUE(pool.remove(python, 2));  // controller stop
  EXPECT_TRUE(pool.check_conservation().ok());

  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.admitted, 3u);
  EXPECT_EQ(l.leased, 1u);
  EXPECT_EQ(l.removed, 1u);
  EXPECT_EQ(l.pooled, 1u);
  EXPECT_EQ(l.paused, 1u);
  EXPECT_TRUE(audit::verify(l).ok());

  // Re-admission of a leased container is a second residency.
  pool.add_available(entry(1, python, seconds(0)), seconds(4));
  pool.clear();
  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows after = pool.flows();
  EXPECT_EQ(after.pooled, 0u);
  EXPECT_EQ(after.admitted, after.leased + after.removed);
}

TEST(PoolConservation, DoubleAddSupersedesWithoutLeaking) {
  RuntimePool pool;
  const auto python = key_for("python");
  pool.add_available(entry(9, python, seconds(0)), seconds(1));
  pool.add_available(entry(9, python, seconds(0)), seconds(2));  // supersede
  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.pooled, 1u);
  EXPECT_EQ(l.admitted, 2u);
  EXPECT_EQ(l.removed, 1u);  // the superseded residency counts as removed
}

TEST(PoolConservation, ShardedGlobalAndPerShardBalance) {
  ShardedRuntimePool pool({}, 4);
  for (engine::ContainerId id = 1; id <= 64; ++id) {
    const auto key = key_for("img-" + std::to_string(id % 7));
    pool.add_available(entry(id, key, seconds(0)), seconds(1));
  }
  for (int i = 0; i < 5; ++i) {
    std::ignore = pool.acquire(key_for("img-3"), seconds(2));
  }
  ASSERT_TRUE(pool.remove(key_for("img-1"), 8));
  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.admitted, 64u);
  EXPECT_EQ(l.admitted, l.leased + l.removed + l.pooled);
}

TEST(PoolConservation, HoldsUnderConcurrentMutation) {
  ShardedRuntimePool pool({}, 4);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t]() {
      const auto key = key_for("img-" + std::to_string(t % 3));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto id = static_cast<engine::ContainerId>(t * kOpsPerThread +
                                                         i + 1);
        pool.add_available(entry(id, key, seconds(0)), seconds(i));
        if (i % 3 == 0) std::ignore = pool.acquire(key, seconds(i));
        if (i % 7 == 0) std::ignore = pool.remove(key, id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.admitted, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(l.admitted, l.leased + l.removed + l.pooled);
}

TEST(PoolConservation, DonationFlowBalances) {
  RuntimePool pool;
  const auto python = key_for("python");
  const auto node = key_for("node");

  pool.add_available(entry(1, python, seconds(0)), seconds(1));
  pool.add_available(entry(2, python, seconds(0)), seconds(1));

  // Donation is a lease sub-flow: the donor leaves python's pool...
  auto donor = pool.acquire_for_donation(python, seconds(2));
  ASSERT_TRUE(donor.has_value());
  EXPECT_TRUE(pool.check_conservation().ok());

  // ...and after conversion re-enters under the sibling's key as a new
  // residency, flagged so the respecialized flow counts it exactly once.
  donor->key = node;
  donor->respecialized = true;
  pool.add_available(*donor, seconds(3));
  EXPECT_TRUE(pool.check_conservation().ok());

  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.admitted, 3u);
  EXPECT_EQ(l.leased, 1u);
  EXPECT_EQ(l.donated, 1u);
  EXPECT_EQ(l.respecialized, 1u);
  EXPECT_EQ(l.pooled, 2u);
  EXPECT_TRUE(audit::verify(l).ok());

  // The flag was consumed at re-admission: a plain return of the same
  // container must not double-count the respecialized flow.
  ASSERT_TRUE(pool.acquire(node, seconds(4)).has_value());
  donor->respecialized = false;
  pool.add_available(*donor, seconds(5));
  EXPECT_EQ(pool.flows().respecialized, 1u);
  EXPECT_TRUE(pool.check_conservation().ok());
}

TEST(PoolConservation, ShardedDonationCrossShardReadmit) {
  // The donor is leased from its key's shard but readmitted (converted)
  // on the *sibling* key's shard, so respecialized <= donated holds only
  // over the sum of the shards — exactly what check_conservation verifies.
  ShardedRuntimePool pool({}, 4);
  const auto python = key_for("python");
  const auto node = key_for("node");
  pool.add_available(entry(1, python, seconds(0)), seconds(1));

  auto donor = pool.acquire_for_donation(python, seconds(2));
  ASSERT_TRUE(donor.has_value());
  donor->key = node;
  donor->respecialized = true;
  pool.add_available(*donor, seconds(3));

  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.donated, 1u);
  EXPECT_EQ(l.respecialized, 1u);
  EXPECT_TRUE(audit::verify(l, audit::Scope::kShardSum).ok());
}

using PoolConservationDeathTest = ::testing::Test;

TEST(PoolConservationDeathTest, SeededLeakAborts) {
  // A ledger claiming one more pooled container than ever entered — the
  // double-visibility bug class pool-reuse systems must never ship.
  PoolFlows bad;
  bad.admitted = 10;
  bad.leased = 4;
  bad.removed = 3;
  bad.pooled = 4;  // should be 3
  ASSERT_FALSE(audit::verify(bad).ok());
  EXPECT_DEATH(audit::enforce(audit::verify(bad), "seeded-leak"),
               "conservation violated");
}

TEST(PoolConservationDeathTest, SeededPausedOverflowAborts) {
  PoolFlows bad;
  bad.admitted = 2;
  bad.pooled = 2;
  bad.paused = 3;  // paused must be a sub-count of pooled
  EXPECT_DEATH(audit::enforce(audit::verify(bad), "seeded-paused"),
               "conservation violated");
}

TEST(PoolConservationDeathTest, DoubleCountedDonationAborts) {
  // A donated container counted twice (donated exceeding leased) is the
  // sharing bug class: one physical runtime visible as two donations.
  PoolFlows bad;
  bad.admitted = 4;
  bad.leased = 2;
  bad.pooled = 2;
  bad.donated = 3;  // donated must be a sub-flow of leased
  ASSERT_FALSE(audit::verify(bad).ok());
  EXPECT_DEATH(audit::enforce(audit::verify(bad), "seeded-donated"),
               "conservation violated");
}

TEST(PoolConservationDeathTest, RespecializedOverflowAborts) {
  // More conversions readmitted than residencies ever admitted: a
  // respecialized runtime was double-inserted.
  PoolFlows bad;
  bad.admitted = 2;
  bad.pooled = 2;
  bad.respecialized = 3;  // respecialized must be a sub-flow of admitted
  EXPECT_DEATH(audit::enforce(audit::verify(bad), "seeded-respec"),
               "conservation violated");
}

TEST(PoolConservation, CheckpointedAndRestoredFlowsBalance) {
  // The snapshot tier's two ledger flows: a demotion leaves through
  // remove_for_checkpoint (checkpointed ⊆ removed) and the revived
  // runtime re-enters via add_available with the restored flag
  // (restored ⊆ admitted).
  ShardedRuntimePool pool({}, 4);
  const auto python = key_for("python");
  pool.add_available(entry(1, python, seconds(0)), seconds(1));

  ASSERT_TRUE(pool.remove_for_checkpoint(python, 1));
  EXPECT_EQ(pool.flows().checkpointed, 1u);
  EXPECT_EQ(pool.flows().removed, 1u);

  PoolEntry revived = entry(1, python, seconds(0));
  revived.restored = true;
  pool.add_available(revived, seconds(5));
  EXPECT_TRUE(pool.check_conservation().ok());
  const PoolFlows l = pool.flows();
  EXPECT_EQ(l.restored, 1u);
  EXPECT_EQ(l.admitted, 2u);  // two residencies, one container
  EXPECT_EQ(l.checkpointed, 1u);
  EXPECT_TRUE(audit::verify(l).ok());
}

TEST(PoolConservationDeathTest, CheckpointedOverflowAborts) {
  // More demotions than removals: a container left for the snapshot tier
  // without leaving the pool — the double-visibility bug for the new tier.
  PoolFlows bad;
  bad.admitted = 3;
  bad.removed = 1;
  bad.pooled = 2;
  bad.checkpointed = 2;  // checkpointed must be a sub-flow of removed
  ASSERT_FALSE(audit::verify(bad).ok());
  EXPECT_DEATH(audit::enforce(audit::verify(bad), "seeded-checkpointed"),
               "conservation violated");
}

TEST(PoolConservationDeathTest, RestoredOverflowAborts) {
  // More restores re-admitted than residencies ever admitted: one
  // snapshot revived twice (take() failed to consume).
  PoolFlows bad;
  bad.admitted = 2;
  bad.pooled = 2;
  bad.restored = 3;  // restored must be a sub-flow of admitted
  ASSERT_FALSE(audit::verify(bad).ok());
  EXPECT_DEATH(audit::enforce(audit::verify(bad), "seeded-restored"),
               "conservation violated");
}

TEST(PoolConservationDeathTest, RespecializedBeyondDonatedAbortsOverTheSum) {
  // More conversions readmitted than donors ever leased, in a ledger that
  // every per-pool identity accepts: one shard may readmit conversions
  // whose donors left other shards, so only the sum over the shards can
  // catch a conversion that never left a donor pool.
  PoolFlows bad;
  bad.admitted = 3;
  bad.leased = 1;
  bad.pooled = 2;
  bad.donated = 1;
  bad.respecialized = 2;  // respecialized must be a sub-flow of donated
  ASSERT_TRUE(audit::verify(bad).ok());
  ASSERT_FALSE(audit::verify(bad, audit::Scope::kShardSum).ok());
  EXPECT_DEATH(audit::enforce(audit::verify(bad, audit::Scope::kShardSum),
                              "seeded-respec-donated"),
               "conservation violated");
}

}  // namespace
}  // namespace hotc::pool
