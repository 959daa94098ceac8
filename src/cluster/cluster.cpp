#include "cluster/cluster.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace hotc::cluster {

const char* to_string(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin: return "round-robin";
    case RoutingPolicy::kLeastLoaded: return "least-loaded";
    case RoutingPolicy::kWarmAware: return "warm-aware";
  }
  return "?";
}

ClusterHotC::ClusterHotC(ClusterOptions options)
    : options_(std::move(options)),
      directory_(sim_, options_.nodes, options_.directory_lag),
      routed_(options_.nodes, 0) {
  HOTC_ASSERT(options_.nodes > 0);
  nodes_.reserve(options_.nodes);
  for (std::size_t i = 0; i < options_.nodes; ++i) {
    Node node;
    node.engine =
        std::make_unique<engine::ContainerEngine>(sim_, options_.host);
    if (options_.controller.registry != nullptr) {
      node.engine->attach_metrics(*options_.controller.registry);
    }
    node.controller = std::make_unique<HotCController>(*node.engine,
                                                       options_.controller);
    // Keep the warm directory fresh: every pool change on node i publishes
    // that key's new available count.
    node.controller->set_pool_listener(
        [this, i](const spec::RuntimeKey& key) { publish_node(i, key); });
    nodes_.push_back(std::move(node));
  }
  if (options_.registry != nullptr) {
    collection_ = options_.registry->collect([this](obs::MetricSink& out) {
      const RankedGuard lock(mu_);
      for (std::size_t i = 0; i < routed_.size(); ++i) {
        out.counter("hotc_cluster_routed_total",
                    "Requests routed to each node",
                    static_cast<double>(routed_[i]),
                    "node=\"" + std::to_string(i) + "\"");
      }
      out.counter(
          "hotc_cluster_warm_routed_total",
          "Requests routed to a node advertising a warm runtime of the key",
          static_cast<double>(warm_hits_));
      out.counter(
          "hotc_cluster_warm_fallback_total",
          "Warm-aware routes that fell back to least-loaded (nobody warm)",
          static_cast<double>(warm_fallbacks_));
    });
  }
}

HotCController& ClusterHotC::controller(NodeId node) {
  HOTC_ASSERT(node < nodes_.size());
  return *nodes_[node].controller;
}

engine::ContainerEngine& ClusterHotC::engine(NodeId node) {
  HOTC_ASSERT(node < nodes_.size());
  return *nodes_[node].engine;
}

void ClusterHotC::start_adaptive_loops(TimePoint until) {
  for (auto& node : nodes_) node.controller->start_adaptive_loop(until);
}

void ClusterHotC::preload_image(const spec::ImageRef& ref) {
  for (auto& node : nodes_) node.engine->preload_image(ref);
}

void ClusterHotC::publish_node(NodeId node, const spec::RuntimeKey& key) {
  // Reads through the PoolView seam: the directory only needs per-key
  // counts, not a concrete pool type, so a sharded node works unchanged.
  directory_.publish(node, key,
                     nodes_[node].controller->pool_view().num_available(key));
}

NodeId ClusterHotC::route(const spec::RuntimeKey& key) {
  switch (options_.routing) {
    case RoutingPolicy::kRoundRobin: {
      const NodeId n = rr_next_;
      rr_next_ = (rr_next_ + 1) % nodes_.size();
      return n;
    }
    case RoutingPolicy::kLeastLoaded: {
      NodeId best = 0;
      for (NodeId n = 1; n < nodes_.size(); ++n) {
        if (nodes_[n].inflight < nodes_[best].inflight) best = n;
      }
      return best;
    }
    case RoutingPolicy::kWarmAware: {
      // The router reads replica 0's view (it is co-located with node 0's
      // gateway in this model); staleness is part of the experiment.
      const auto warm = directory_.nodes_with_warm(0, key);
      if (!warm.empty()) {
        ++warm_hits_;
        NodeId best = warm.front();
        for (const NodeId n : warm) {
          if (nodes_[n].inflight < nodes_[best].inflight) best = n;
        }
        return best;
      }
      ++warm_fallbacks_;
      NodeId best = 0;
      for (NodeId n = 1; n < nodes_.size(); ++n) {
        if (nodes_[n].inflight < nodes_[best].inflight) best = n;
      }
      return best;
    }
  }
  return 0;
}

void ClusterHotC::submit(const spec::RunSpec& spec,
                         const engine::AppModel& app, Callback cb) {
  const auto key = options_.controller.use_subset_key
                       ? spec::RuntimeKey::subset_from_spec(spec)
                       : spec::RuntimeKey::from_spec(spec);
  NodeId node = 0;
  {
    // Route and account under the router lock, then release it before
    // descending into the node: the controller may invoke the callback
    // synchronously, which retakes mu_.
    const RankedGuard lock(mu_);
    node = route(key);
    ++routed_[node];
    ++nodes_[node].inflight;
  }
  // The span's shard field carries the chosen node id.
  if (options_.controller.tracer != nullptr) {
    options_.controller.tracer->span(0, obs::Stage::kRoute, sim_.now(),
                                     kZeroDuration, key.hash(),
                                     static_cast<std::uint16_t>(node));
  }
  nodes_[node].controller->handle(
      spec, app,
      [this, node, cb = std::move(cb)](Result<RequestOutcome> r) {
        {
          const RankedGuard lock(mu_);
          --nodes_[node].inflight;
        }
        if (!r.ok()) {
          cb(Result<ClusterOutcome>(r.error()));
          return;
        }
        ClusterOutcome out;
        out.node = node;
        out.outcome = r.value();
        cb(out);
      });
}

}  // namespace hotc::cluster
