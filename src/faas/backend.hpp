// Runtime-provisioning backends behind the gateway.
//
// The gateway forwards a request; a Backend decides how the function gets
// a container.  Three policies reproduce the paper's comparison points:
//
//   ColdStartBackend   — "the default case starting runtimes for each
//                        request": launch, exec, remove.
//   KeepAliveBackend   — industry fixed keep-alive (AWS-style ~15 min):
//                        containers linger per key and expire on a timer.
//   HotCBackend        — the paper's contribution, wrapping HotCController
//                        (pool reuse + cleanup + adaptive prediction).
//   PeriodicWarmupBackend — Azure-Logic-style: an external timer pings the
//                        function every T to keep one instance warm.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "core/result.hpp"
#include "engine/engine.hpp"
#include "engine/function_table.hpp"
#include "hotc/controller.hpp"
#include "sim/event_queue.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::faas {

class Backend {
 public:
  explicit Backend(engine::ContainerEngine& engine) : engine_(engine) {}
  virtual ~Backend() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Every backend answers with HotC's RequestOutcome (hotc/controller.hpp):
  /// startup is the container acquisition time, exec_total the
  /// in-container execution time and cold() a full provisioning.
  using Callback = HotCController::Callback;
  /// Serve one request for a function of engine()'s table.
  virtual void dispatch(const engine::FunctionHandle& fn,
                        const engine::AppModel& app, Callback cb) = 0;

  /// Trace-attributed dispatch: callers that own a request id (the
  /// gateway) pass it so backend-side spans land in the same trace as the
  /// forwarding hops.  Default forwards to dispatch() — only
  /// tracing-aware backends override.
  virtual void dispatch_traced(std::uint64_t trace_id,
                               const engine::FunctionHandle& fn,
                               const engine::AppModel& app, Callback cb) {
    (void)trace_id;
    dispatch(fn, app, std::move(cb));
  }

  /// RunSpec form: prepare the spec's handle in the engine, then dispatch.
  void dispatch(const spec::RunSpec& spec, const engine::AppModel& app,
                Callback cb) {
    dispatch(engine_.prepare(spec), app, std::move(cb));
  }

  /// Cold starts this backend has caused (for figure tables).
  [[nodiscard]] virtual std::uint64_t cold_starts() const = 0;

  /// The engine whose function table this backend's handles come from.
  [[nodiscard]] engine::ContainerEngine& engine() { return engine_; }

 protected:
  engine::ContainerEngine& engine_;
};

/// Launch + exec + remove on every request.
class ColdStartBackend final : public Backend {
 public:
  explicit ColdStartBackend(engine::ContainerEngine& engine);
  [[nodiscard]] std::string name() const override { return "cold-always"; }
  using Backend::dispatch;
  void dispatch(const engine::FunctionHandle& fn, const engine::AppModel& app,
                Callback cb) override;
  [[nodiscard]] std::uint64_t cold_starts() const override { return colds_; }

 private:
  std::uint64_t colds_ = 0;
};

/// Fixed keep-alive: after execution the container idles for
/// `keep_alive`; a request within that window reuses it (resetting the
/// timer), otherwise the container is removed when the timer fires.
class KeepAliveBackend final : public Backend {
 public:
  KeepAliveBackend(engine::ContainerEngine& engine, Duration keep_alive);
  [[nodiscard]] std::string name() const override;
  using Backend::dispatch;
  void dispatch(const engine::FunctionHandle& fn, const engine::AppModel& app,
                Callback cb) override;
  [[nodiscard]] std::uint64_t cold_starts() const override { return colds_; }

  [[nodiscard]] std::size_t idle_containers() const;
  /// Container-seconds spent idle (the waste the paper attributes to fixed
  /// keep-alive policies).
  [[nodiscard]] double idle_container_seconds() const {
    return idle_seconds_;
  }

 private:
  struct IdleEntry {
    engine::ContainerId id;
    sim::EventId expiry;
    TimePoint idled_at;
  };

  void park(const spec::RuntimeKey& key, engine::ContainerId id);

  sim::Simulator& sim_;
  Duration keep_alive_;
  std::map<spec::RuntimeKey, std::list<IdleEntry>> idle_;
  std::uint64_t colds_ = 0;
  double idle_seconds_ = 0.0;
};

/// HotC middleware as a backend.
class HotCBackend final : public Backend {
 public:
  HotCBackend(engine::ContainerEngine& engine, ControllerOptions options);
  [[nodiscard]] std::string name() const override { return "hotc"; }
  using Backend::dispatch;
  void dispatch(const engine::FunctionHandle& fn, const engine::AppModel& app,
                Callback cb) override;
  void dispatch_traced(std::uint64_t trace_id,
                       const engine::FunctionHandle& fn,
                       const engine::AppModel& app, Callback cb) override;
  [[nodiscard]] std::uint64_t cold_starts() const override {
    return controller_.stats().cold_starts;
  }

  [[nodiscard]] HotCController& controller() { return controller_; }

 private:
  HotCController controller_;
};

/// Azure-Logic-style periodic warm-up: a timer fires every `period` and
/// runs a no-op ping through the function, keeping exactly one instance
/// warm per registered key regardless of real traffic.
class PeriodicWarmupBackend final : public Backend {
 public:
  PeriodicWarmupBackend(engine::ContainerEngine& engine, Duration period,
                        Duration keep_alive);
  [[nodiscard]] std::string name() const override;
  using Backend::dispatch;
  void dispatch(const engine::FunctionHandle& fn, const engine::AppModel& app,
                Callback cb) override;
  [[nodiscard]] std::uint64_t cold_starts() const override {
    return inner_.cold_starts();
  }

  /// Begin pinging this function until `until`; the timer carries the
  /// handle.
  void register_warmup(const engine::FunctionHandle& fn,
                       const engine::AppModel& ping_app, TimePoint until);
  void register_warmup(const spec::RunSpec& spec,
                       const engine::AppModel& ping_app, TimePoint until) {
    register_warmup(engine_.prepare(spec), ping_app, until);
  }

  [[nodiscard]] std::uint64_t warmup_pings() const { return pings_; }

 private:
  sim::Simulator& sim_;
  Duration period_;
  KeepAliveBackend inner_;
  std::uint64_t pings_ = 0;
};

}  // namespace hotc::faas
