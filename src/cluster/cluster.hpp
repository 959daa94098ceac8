// Multi-host HotC (paper §VII future work, implemented as an extension).
//
// "In a distributed system, a few containers are extremely popular ...
// some host machines might become overloaded and we need to consider load
// balancing when reusing the hot runtime."  ClusterHotC runs one
// HotCController per node (all on one simulator) and routes each request:
//
//   kRoundRobin  — classic spray, ignores warmth (baseline)
//   kLeastLoaded — fewest busy containers, ignores warmth (baseline)
//   kWarmAware   — prefer a node advertising an available warm runtime of
//                  the key in the WarmDirectory, break ties by load; fall
//                  back to least-loaded when nobody is warm.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/directory.hpp"
#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"
#include "engine/engine.hpp"
#include "hotc/controller.hpp"
#include "sim/simulator.hpp"

namespace hotc::cluster {

enum class RoutingPolicy { kRoundRobin, kLeastLoaded, kWarmAware };

const char* to_string(RoutingPolicy policy);

struct ClusterOptions {
  std::size_t nodes = 4;
  engine::HostProfile host = engine::HostProfile::server();
  /// Per-node controller options.  A tracer/registry set here is shared
  /// by every node's controller and engine (the nodes' values merge into
  /// cluster-wide totals under the same metric names).
  ControllerOptions controller;
  RoutingPolicy routing = RoutingPolicy::kWarmAware;
  Duration directory_lag = milliseconds(5);
  /// Optional routing metrics, collected at each snapshot: per-node
  /// routed counts plus warm-aware hit/fallback counts.  Must outlive the
  /// cluster.
  obs::Registry* registry = nullptr;
};

struct ClusterOutcome {
  NodeId node = 0;
  RequestOutcome outcome;
};

class ClusterHotC {
 public:
  explicit ClusterHotC(ClusterOptions options);

  ClusterHotC(const ClusterHotC&) = delete;
  ClusterHotC& operator=(const ClusterHotC&) = delete;

  using Callback = std::function<void(Result<ClusterOutcome>)>;

  /// Route and serve one request at the current simulation time.
  void submit(const spec::RunSpec& spec, const engine::AppModel& app,
              Callback cb);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] HotCController& controller(NodeId node);
  [[nodiscard]] engine::ContainerEngine& engine(NodeId node);
  [[nodiscard]] const WarmDirectory& directory() const { return directory_; }

  /// Requests routed to each node (for balance assertions).  A copy taken
  /// under the router lock: the counters move while requests are in
  /// flight, so handing out a reference would leak unguarded reads.
  [[nodiscard]] std::vector<std::uint64_t> routed_counts() const {
    const RankedGuard lock(mu_);
    return routed_;
  }

  /// Start all nodes' adaptive loops.
  void start_adaptive_loops(TimePoint until);

  /// Preload an image on every node.
  void preload_image(const spec::ImageRef& ref);

 private:
  struct Node {
    std::unique_ptr<engine::ContainerEngine> engine;
    std::unique_ptr<HotCController> controller;
    std::uint64_t inflight = 0;
  };

  /// Pick a node for the key.  Caller must hold mu_.
  [[nodiscard]] NodeId route(const spec::RuntimeKey& key) HOTC_REQUIRES(mu_);
  void publish_node(NodeId node, const spec::RuntimeKey& key);

  ClusterOptions options_;
  sim::Simulator sim_;
  WarmDirectory directory_;
  std::vector<Node> nodes_;
  /// Guards routing state (routed_, the warm-route counts, rr_next_,
  /// Node::inflight) only; the outermost rank band — released before
  /// descending into a node's controller, so controller/pool/log locks
  /// always nest inside it.
  mutable RankedMutex mu_{LockRank::kClusterRouter, 0, "cluster.router"};
  std::vector<std::uint64_t> routed_ HOTC_GUARDED_BY(mu_);
  std::uint64_t warm_hits_ HOTC_GUARDED_BY(mu_) = 0;  // directory hit
  std::uint64_t warm_fallbacks_ HOTC_GUARDED_BY(mu_) = 0;  // nobody warm
  NodeId rr_next_ HOTC_GUARDED_BY(mu_) = 0;
  obs::Registry::Collection collection_;  // last: unregisters first
};

}  // namespace hotc::cluster
