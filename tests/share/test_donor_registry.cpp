// Donor registry: class indexing, surplus-only selection, and coherence
// with the lock-striped pool under concurrent lease/return traffic.
//
// Built with -DHOTC_SANITIZE=thread (ctest -L tsan) this proves the
// stripe locks + PoolView probes race-free against pool mutation; the
// single-threaded cases pin the selection policy (never the request's own
// key, never another class, never a non-nominated key's last idle
// runtime, nominated donors first).
#include "share/donor_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/function_table.hpp"
#include "pool/audit.hpp"
#include "pool/pool.hpp"
#include "pool/sharded_pool.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::share {
namespace {

spec::RunSpec function_spec(const std::string& image,
                            const std::string& func) {
  spec::RunSpec s;
  s.image = spec::ImageRef{image, "latest"};
  s.network = spec::NetworkMode::kBridge;
  s.env["FUNC"] = func;
  return s;
}

pool::PoolEntry entry(engine::ContainerId id, const spec::RuntimeKey& key) {
  pool::PoolEntry e;
  e.id = id;
  e.key = key;
  e.created_at = seconds(0);
  return e;
}

class DonorRegistryTest : public ::testing::Test {
 protected:
  void add_idle(const spec::RuntimeKey& key, engine::ContainerId id) {
    pool_.add_available(entry(id, key), seconds(1));
  }

  /// The registry files and finds function handles, not specs.
  const engine::FunctionHandle& fn(const spec::RunSpec& s) {
    return functions_.prepare(s);
  }

  engine::Registry images_;
  engine::CostModel cost_{engine::HostProfile::server()};
  engine::FunctionTable functions_{images_, cost_};
  DonorRegistry registry_;
  pool::ShardedRuntimePool pool_{{}, 4};
};

TEST_F(DonorRegistryTest, FindsSiblingWithSurplusStock) {
  const auto req = function_spec("python", "alpha");
  const auto sib = function_spec("python", "beta");
  const auto sib_key = spec::RuntimeKey::from_spec(sib);
  registry_.record(spec::RuntimeKey::from_spec(req), fn(req));
  registry_.record(sib_key, fn(sib));
  add_idle(sib_key, 1);
  add_idle(sib_key, 2);  // surplus: donating one still leaves one

  const auto cand =
      registry_.find_donor(fn(req), spec::RuntimeKey::from_spec(req), pool_);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->key, sib_key);
  EXPECT_FALSE(cand->nominated);
  EXPECT_EQ(registry_.found(), 1u);
}

TEST_F(DonorRegistryTest, NeverReturnsTheRequestsOwnKey) {
  const auto req = function_spec("python", "alpha");
  const auto key = spec::RuntimeKey::from_spec(req);
  registry_.record(key, fn(req));
  add_idle(key, 1);
  add_idle(key, 2);
  EXPECT_FALSE(registry_.find_donor(fn(req), key, pool_).has_value());
}

TEST_F(DonorRegistryTest, NonNominatedKeyKeepsItsLastIdleRuntime) {
  const auto req = function_spec("python", "alpha");
  const auto sib = function_spec("python", "beta");
  const auto sib_key = spec::RuntimeKey::from_spec(sib);
  registry_.record(sib_key, fn(sib));
  add_idle(sib_key, 1);  // exactly one idle: reserved for its own key
  EXPECT_FALSE(registry_
                   .find_donor(fn(req), spec::RuntimeKey::from_spec(req), pool_)
                   .has_value());
}

TEST_F(DonorRegistryTest, NominationReleasesTheLastIdleRuntime) {
  const auto req = function_spec("python", "alpha");
  const auto sib = function_spec("python", "beta");
  const auto sib_key = spec::RuntimeKey::from_spec(sib);
  const spec::CompatClass sib_cls = registry_.record(sib_key, fn(sib));
  registry_.set_flags(sib_cls, sib_key, /*nominated=*/true, /*muted=*/false);
  add_idle(sib_key, 1);

  const auto cand =
      registry_.find_donor(fn(req), spec::RuntimeKey::from_spec(req), pool_);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->key, sib_key);
  EXPECT_TRUE(cand->nominated);

  registry_.set_flags(sib_cls, sib_key, /*nominated=*/false, /*muted=*/false);
  EXPECT_FALSE(registry_
                   .find_donor(fn(req), spec::RuntimeKey::from_spec(req), pool_)
                   .has_value());
}

TEST_F(DonorRegistryTest, NominatedDonorWinsOverMerelyLive) {
  const auto req = function_spec("python", "alpha");
  const auto live = function_spec("python", "beta");
  const auto nominated = function_spec("python", "gamma");
  const auto live_key = spec::RuntimeKey::from_spec(live);
  const auto nom_key = spec::RuntimeKey::from_spec(nominated);
  registry_.record(live_key, fn(live));
  const spec::CompatClass nom_cls = registry_.record(nom_key, fn(nominated));
  registry_.set_flags(nom_cls, nom_key, /*nominated=*/true, /*muted=*/false);
  add_idle(live_key, 1);
  add_idle(live_key, 2);
  add_idle(nom_key, 3);

  const auto cand =
      registry_.find_donor(fn(req), spec::RuntimeKey::from_spec(req), pool_);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->key, nom_key);
}

TEST_F(DonorRegistryTest, NeverCrossesCompatibilityClasses) {
  const auto req = function_spec("python", "alpha");
  const auto other = function_spec("golang", "beta");
  const auto other_key = spec::RuntimeKey::from_spec(other);
  const spec::CompatClass other_cls = registry_.record(other_key, fn(other));
  registry_.set_flags(other_cls, other_key, /*nominated=*/true,
                      /*muted=*/false);
  add_idle(other_key, 1);
  add_idle(other_key, 2);
  EXPECT_FALSE(registry_
                   .find_donor(fn(req), spec::RuntimeKey::from_spec(req), pool_)
                   .has_value());
}

// The tsan centerpiece: registry reads (find_donor probing PoolView) and
// writes (record/set_flags) race against pool lease/donate/return traffic.
// Afterwards, at quiescence, the pool's conservation audit must close
// with the donated/respecialized flows balanced.
TEST_F(DonorRegistryTest, CoherentUnderConcurrentLeaseAndReturn) {
  constexpr int kKeys = 8;
  constexpr int kOpsPerThread = 400;

  std::vector<const engine::FunctionHandle*> specs;
  std::vector<spec::RuntimeKey> keys;
  for (int i = 0; i < kKeys; ++i) {
    specs.push_back(&fn(function_spec("python", "fn-" + std::to_string(i))));
    keys.push_back(specs.back()->key);
    registry_.record(keys.back(), *specs.back());
    pool_.add_available(entry(static_cast<engine::ContainerId>(i + 1),
                              keys.back()),
                        seconds(1));
  }

  std::vector<std::thread> threads;
  // Writers: churn registry state the way the adaptive tick does.
  threads.emplace_back([&]() {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int k = i % kKeys;
      const spec::CompatClass cls = registry_.record(keys[k], *specs[k]);
      registry_.set_flags(cls, keys[k], /*nominated=*/i % 2 == 0,
                          /*muted=*/false);
    }
  });
  // Returners: keep fresh idle stock flowing into every key.
  threads.emplace_back([&]() {
    for (int i = 0; i < kOpsPerThread; ++i) {
      pool_.add_available(
          entry(static_cast<engine::ContainerId>(1000 + i), keys[i % kKeys]),
          seconds(2 + i));
    }
  });
  // Seekers: the controller's miss path — find a donor, lease it through
  // the donation seam, convert (re-key + flag), return it.
  std::atomic<std::uint64_t> lookups{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i + t) % kKeys;
        lookups.fetch_add(1, std::memory_order_relaxed);
        const auto cand = registry_.find_donor(*specs[k], keys[k], pool_);
        if (!cand.has_value()) continue;
        auto donor = pool_.acquire_for_donation(cand->key, seconds(3 + i));
        if (!donor.has_value()) continue;  // lost the race: fine
        donor->key = keys[k];
        donor->respecialized = true;
        pool_.add_available(*donor, seconds(3 + i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_TRUE(pool_.check_conservation().ok());
  const pool::PoolFlows ledger = pool_.flows();
  EXPECT_TRUE(audit::verify(ledger, audit::Scope::kShardSum).ok());
  // Every donation was readmitted as a conversion, and nothing else was.
  EXPECT_EQ(ledger.donated, ledger.respecialized);
  EXPECT_EQ(registry_.known_keys(), static_cast<std::size_t>(kKeys));
  EXPECT_LE(registry_.found(), lookups.load());
}

}  // namespace
}  // namespace hotc::share
