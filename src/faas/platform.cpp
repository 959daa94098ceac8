#include "faas/platform.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "core/assert.hpp"

namespace hotc::faas {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kColdAlways: return "cold-always";
    case PolicyKind::kKeepAlive: return "keep-alive";
    case PolicyKind::kHotC: return "hotc";
    case PolicyKind::kPeriodicWarmup: return "periodic-warmup";
  }
  return "?";
}

FaasPlatform::FaasPlatform(PlatformOptions options)
    : options_(std::move(options)), engine_(sim_, options_.host) {
  if (options_.registry != nullptr) {
    options_.hotc.registry = options_.registry;
    engine_.attach_metrics(*options_.registry);
  }
  if (options_.tracer != nullptr) {
    options_.hotc.tracer = options_.tracer;
    options_.gateway.tracer = options_.tracer;
  }
  switch (options_.policy) {
    case PolicyKind::kColdAlways:
      backend_ = std::make_unique<ColdStartBackend>(engine_);
      break;
    case PolicyKind::kKeepAlive:
      backend_ = std::make_unique<KeepAliveBackend>(engine_,
                                                    options_.keep_alive);
      break;
    case PolicyKind::kHotC:
      backend_ = std::make_unique<HotCBackend>(engine_, options_.hotc);
      break;
    case PolicyKind::kPeriodicWarmup:
      backend_ = std::make_unique<PeriodicWarmupBackend>(
          engine_, options_.warmup_period, options_.keep_alive);
      break;
  }
  gateway_ = std::make_unique<Gateway>(sim_, *backend_, options_.gateway);
  if (options_.monitor_period.has_value()) {
    monitor_ = std::make_unique<engine::ResourceMonitor>(
        sim_, engine_, *options_.monitor_period);
  }
}

HotCController* FaasPlatform::hotc_controller() {
  auto* hotc_backend = dynamic_cast<HotCBackend*>(backend_.get());
  return hotc_backend != nullptr ? &hotc_backend->controller() : nullptr;
}

metrics::LatencyRecorder FaasPlatform::run(
    const workload::ArrivalList& arrivals, const workload::ConfigMix& mix) {
  HOTC_ASSERT_MSG(!ran_, "FaasPlatform::run may be called only once");
  ran_ = true;
  metrics::LatencyRecorder recorder;
  if (arrivals.empty()) return recorder;

  // End-to-end latency distribution, with the request id as exemplar:
  // the SLO engine takes its p99/p999 from this family, and hotc_top can
  // resolve an over-budget bucket to the exact trace in OBS_spans.jsonl.
  if (options_.registry != nullptr) {
    duration_hist_ = &options_.registry->histogram(
        "hotc_request_duration_ms",
        "End-to-end request latency (ms), gateway submit to reply");
  }

  if (options_.preload_images) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const auto& ref = mix.at(i).spec.image;
      if (seen.insert(ref.full()).second) engine_.preload_image(ref);
    }
  }

  // Each function of the mix is prepared once, at its first request, and
  // its requests carry the handle.  Preparing on first request keeps the
  // order in which runtime keys are interned (and so their KeyIds, which
  // the pool's random-eviction walk follows) the order of first requests.
  std::vector<const engine::FunctionHandle*> functions(mix.size(), nullptr);
  const auto function = [this, &mix, &functions](std::size_t config)
      -> const engine::FunctionHandle& {
    const engine::FunctionHandle*& fn = functions[config];
    if (fn == nullptr) fn = &engine_.prepare(mix.at(config).spec);
    return *fn;
  };

  // One pass checks every arrival's config, finds whether the list is in
  // time order and takes the latest arrival: the run's horizon, which the
  // last list entry gives only when the list is sorted.
  bool sorted = true;
  TimePoint last = arrivals.front().at;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    HOTC_ASSERT_MSG(arrivals[i].config_index < mix.size(),
                    "arrival names a config outside the mix");
    if (i > 0 && arrivals[i].at < arrivals[i - 1].at) sorted = false;
    last = std::max(last, arrivals[i].at);
  }
  const TimePoint horizon = last + options_.trailing_slack;

  if (auto* controller = hotc_controller()) {
    controller->start_adaptive_loop(horizon);
  }
  if (auto* warmup = dynamic_cast<PeriodicWarmupBackend*>(backend_.get())) {
    // Azure-Logic style: every function in the mix gets a keep-warm timer
    // for the whole run.
    for (std::size_t i = 0; i < mix.size(); ++i) {
      warmup->register_warmup(function(i), engine::apps::random_number(),
                              horizon);
    }
  }
  if (monitor_) monitor_->start();

  // Arrivals stream into the event queue one pending at a time, in the
  // order an eager schedule of the whole list would fire them: by time,
  // then list index.  A list out of time order streams through its
  // indices stable-sorted by time.  Request ids are list index + 1.
  std::vector<std::size_t> order;
  if (!sorted) {
    order.resize(arrivals.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&arrivals](std::size_t a, std::size_t b) {
                       return arrivals[a].at < arrivals[b].at;
                     });
  }
  const auto index = [&order](std::size_t k) {
    return order.empty() ? k : order[k];
  };
  completed_.reserve(arrivals.size());
  recorder.reserve(arrivals.size());
  sim_.stream(
      arrivals.size(),
      [&arrivals, index](std::size_t k) { return arrivals[index(k)].at; },
      [this, &arrivals, &mix, &function, &recorder, index](std::size_t k) {
        const std::size_t i = index(k);
        const std::size_t config = arrivals[i].config_index;
        gateway_->submit(i + 1, config, function(config), mix.at(config).app,
                         [this, &recorder](Result<CompletedRequest> done) {
                           record(std::move(done), recorder);
                         });
      });

  // Run every queued event; the monitor/adaptive loops stop themselves at
  // the horizon.
  if (monitor_) {
    // A free-running monitor would keep the queue alive forever; bound it.
    sim_.at(horizon, [this]() { monitor_->stop(); });
  }
  sim_.run();
  return recorder;
}

void FaasPlatform::record(Result<CompletedRequest> done,
                          metrics::LatencyRecorder& recorder) {
  if (!done.ok()) {
    ++failures_;
    return;
  }
  const CompletedRequest& c = done.value();
  completed_.push_back(c);
  metrics::LatencyPoint p;
  p.request_id = c.id;
  p.arrival = c.submitted;
  p.latency = c.total();
  p.cold = c.cold;
  p.config_index = c.config_index;
  if (duration_hist_ != nullptr) {
    duration_hist_->observe(to_milliseconds(p.latency), p.request_id);
  }
  recorder.add(p);
}

}  // namespace hotc::faas
