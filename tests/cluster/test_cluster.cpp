#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "engine/app.hpp"

namespace hotc::cluster {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

ClusterOptions options_with(RoutingPolicy policy, std::size_t nodes = 3) {
  ClusterOptions opt;
  opt.nodes = nodes;
  opt.routing = policy;
  opt.directory_lag = kZeroDuration;
  return opt;
}

TEST(Cluster, RoundRobinSpreadsEvenly) {
  ClusterHotC cluster(options_with(RoutingPolicy::kRoundRobin));
  cluster.preload_image(python_spec().image);
  const auto app = engine::apps::random_number();
  for (int i = 0; i < 9; ++i) {
    cluster.submit(python_spec(), app, [](Result<ClusterOutcome>) {});
    cluster.simulator().run();
  }
  for (const auto count : cluster.routed_counts()) {
    EXPECT_EQ(count, 3u);
  }
}

TEST(Cluster, WarmAwareRoutesToWarmNode) {
  ClusterHotC cluster(options_with(RoutingPolicy::kWarmAware));
  cluster.preload_image(python_spec().image);
  const auto app = engine::apps::qr_encoder();

  // First request lands somewhere (least-loaded fallback = node 0) and
  // leaves a warm container there.
  std::optional<ClusterOutcome> first;
  cluster.submit(python_spec(), app,
                 [&](Result<ClusterOutcome> r) { first = r.value(); });
  cluster.simulator().run();
  ASSERT_TRUE(first.has_value());

  // All later serial requests must chase the warm container.
  for (int i = 0; i < 5; ++i) {
    std::optional<ClusterOutcome> next;
    cluster.submit(python_spec(), app,
                   [&](Result<ClusterOutcome> r) { next = r.value(); });
    cluster.simulator().run();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->node, first->node);
    EXPECT_TRUE(next->outcome.reused);
  }
}

TEST(Cluster, RoundRobinWastesWarmContainers) {
  // The baseline pays a cold start per node; warm-aware pays exactly one.
  const auto app = engine::apps::qr_encoder();
  auto run_policy = [&](RoutingPolicy policy) {
    ClusterHotC cluster(options_with(policy));
    cluster.preload_image(python_spec().image);
    std::size_t colds = 0;
    for (int i = 0; i < 6; ++i) {
      cluster.submit(python_spec(), app, [&](Result<ClusterOutcome> r) {
        if (!r.value().outcome.reused) ++colds;
      });
      cluster.simulator().run();
    }
    return colds;
  };
  EXPECT_EQ(run_policy(RoutingPolicy::kWarmAware), 1u);
  EXPECT_EQ(run_policy(RoutingPolicy::kRoundRobin), 3u);
}

TEST(Cluster, LeastLoadedBalancesInflight) {
  ClusterHotC cluster(options_with(RoutingPolicy::kLeastLoaded));
  cluster.preload_image(python_spec().image);
  const auto app = engine::apps::v3_app();  // long-running
  // Submit 6 concurrent requests without draining the simulator: inflight
  // counts steer placement.
  for (int i = 0; i < 6; ++i) {
    cluster.submit(python_spec(), app, [](Result<ClusterOutcome>) {});
  }
  cluster.simulator().run();
  const auto& routed = cluster.routed_counts();
  const auto total = std::accumulate(routed.begin(), routed.end(), 0ull);
  EXPECT_EQ(total, 6u);
  for (const auto count : routed) EXPECT_EQ(count, 2u);
}

TEST(Cluster, AdaptiveLoopsRunPerNode) {
  ClusterHotC cluster(options_with(RoutingPolicy::kWarmAware, 2));
  cluster.preload_image(python_spec().image);
  cluster.start_adaptive_loops(minutes(2));
  cluster.submit(python_spec(), engine::apps::qr_encoder(),
                 [](Result<ClusterOutcome>) {});
  cluster.simulator().run();
  // Both nodes ticked their adaptive loops to the horizon without hanging.
  EXPECT_GE(cluster.simulator().now(), minutes(2));
}

TEST(Cluster, DirectoryReflectsPoolState) {
  ClusterHotC cluster(options_with(RoutingPolicy::kWarmAware, 2));
  cluster.preload_image(python_spec().image);
  const auto key = spec::RuntimeKey::from_spec(python_spec());
  cluster.submit(python_spec(), engine::apps::qr_encoder(),
                 [](Result<ClusterOutcome>) {});
  cluster.simulator().run();
  const auto warm = cluster.directory().nodes_with_warm(0, key);
  ASSERT_EQ(warm.size(), 1u);
}

TEST(Cluster, PolicyNames) {
  EXPECT_STREQ(to_string(RoutingPolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(RoutingPolicy::kWarmAware), "warm-aware");
}

}  // namespace
}  // namespace hotc::cluster

namespace hotc::cluster {
namespace {

TEST(Cluster, StaleDirectoryStillServes) {
  ClusterOptions opt;
  opt.nodes = 3;
  opt.routing = RoutingPolicy::kWarmAware;
  opt.directory_lag = seconds(5);  // severely stale
  ClusterHotC cluster(opt);
  cluster.preload_image(spec::ImageRef{"python", "3.8"});
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    cluster.submit(s, engine::apps::qr_encoder(),
                   [&](Result<ClusterOutcome> r) {
                     if (r.ok()) ++completed;
                   });
    cluster.simulator().run();
  }
  EXPECT_EQ(completed, 10);  // staleness degrades placement, never service
}

TEST(Cluster, WarmAwareBreaksTiesByLoad) {
  ClusterOptions opt;
  opt.nodes = 2;
  opt.routing = RoutingPolicy::kWarmAware;
  opt.directory_lag = kZeroDuration;
  ClusterHotC cluster(opt);
  cluster.preload_image(spec::ImageRef{"python", "3.8"});
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  const auto app = engine::apps::v3_app();  // long-running

  // Warm both nodes: two concurrent requests (second falls back to the
  // empty node because node 0 has no *available* container while busy).
  for (int i = 0; i < 2; ++i) {
    cluster.submit(s, app, [](Result<ClusterOutcome>) {});
  }
  cluster.simulator().run();
  // Now both nodes hold one warm container.  Two concurrent requests must
  // split across them (the busy node loses the tie-break).
  std::vector<NodeId> placed;
  for (int i = 0; i < 2; ++i) {
    cluster.submit(s, app, [&](Result<ClusterOutcome> r) {
      placed.push_back(r.value().node);
    });
  }
  cluster.simulator().run();
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_NE(placed[0], placed[1]);
}

TEST(Cluster, PerNodeEnginesIsolated) {
  ClusterOptions opt;
  opt.nodes = 2;
  opt.routing = RoutingPolicy::kRoundRobin;
  ClusterHotC cluster(opt);
  cluster.preload_image(spec::ImageRef{"python", "3.8"});
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  cluster.submit(s, engine::apps::qr_encoder(), [](Result<ClusterOutcome>) {});
  cluster.simulator().run();
  // Round-robin sent the only request to node 0; node 1 never launched.
  EXPECT_EQ(cluster.engine(0).launches(), 1u);
  EXPECT_EQ(cluster.engine(1).launches(), 0u);
}

TEST(Cluster, SharedRegistrySumsTheNodes) {
  obs::Registry registry;
  ClusterOptions opt = options_with(RoutingPolicy::kRoundRobin, 2);
  opt.registry = &registry;
  opt.controller.registry = &registry;
  ClusterHotC cluster(opt);
  cluster.preload_image(python_spec().image);
  const auto app = engine::apps::qr_encoder();
  for (int i = 0; i < 5; ++i) {
    cluster.submit(python_spec(), app, [](Result<ClusterOutcome>) {});
    cluster.simulator().run();
  }
  const auto& node0 = cluster.controller(0).stats();
  const auto& node1 = cluster.controller(1).stats();
  ASSERT_GT(node0.requests, 0u);
  ASSERT_GT(node1.requests, 0u);
  const auto routed = cluster.routed_counts();
  std::size_t requests_samples = 0;
  for (const auto& s : registry.snapshot()) {
    if (s.name == "hotc_requests_total") {
      ++requests_samples;
      EXPECT_DOUBLE_EQ(s.value,
                       static_cast<double>(node0.requests + node1.requests));
    }
    if (s.name == "hotc_engine_launches_total") {
      EXPECT_DOUBLE_EQ(s.value,
                       static_cast<double>(cluster.engine(0).launches() +
                                           cluster.engine(1).launches()));
    }
    if (s.name == "hotc_cluster_routed_total") {
      EXPECT_DOUBLE_EQ(s.value,
                       static_cast<double>(
                           routed[s.labels == "node=\"0\"" ? 0 : 1]));
    }
  }
  EXPECT_EQ(requests_samples, 1u);  // one merged total, not one per node
}

}  // namespace
}  // namespace hotc::cluster
