#include "faas/backend.hpp"

#include <utility>

namespace hotc::faas {
namespace {

/// A baseline backend's answer: the launch it paid (zero for a kept-alive
/// container), then the exec; nothing else is on its path.
RequestOutcome ran_on(engine::ContainerId id, bool reused, Duration provision,
                      const engine::ExecReport& ran) {
  RequestOutcome out;
  out.reused = reused;
  out.startup = provision;
  out.exec_total = ran.total();
  out.total = provision + ran.total();
  out.container = id;
  return out;
}

}  // namespace

// --- ColdStartBackend ------------------------------------------------------

ColdStartBackend::ColdStartBackend(engine::ContainerEngine& engine)
    : Backend(engine) {}

void ColdStartBackend::dispatch(const engine::FunctionHandle& fn,
                                const engine::AppModel& app, Callback cb) {
  ++colds_;
  engine_.launch(fn, [this, app, cb = std::move(cb)](
                           Result<engine::LaunchReport> launched) {
    if (!launched.ok()) {
      cb(Result<RequestOutcome>(launched.error()));
      return;
    }
    const auto id = launched.value().container;
    const Duration provision = launched.value().breakdown.total();
    engine_.exec(id, app, [this, id, provision,
                           cb](Result<engine::ExecReport> ran) {
      // Stateless default platform: the runtime is torn down regardless.
      engine_.stop_and_remove(id, [](Result<bool>) {});
      if (!ran.ok()) {
        cb(Result<RequestOutcome>(ran.error()));
        return;
      }
      cb(ran_on(id, /*reused=*/false, provision, ran.value()));
    });
  });
}

// --- KeepAliveBackend ------------------------------------------------------

KeepAliveBackend::KeepAliveBackend(engine::ContainerEngine& engine,
                                   Duration keep_alive)
    : Backend(engine), sim_(engine.simulator()), keep_alive_(keep_alive) {}

std::string KeepAliveBackend::name() const {
  return "keep-alive(" + format_duration(keep_alive_) + ")";
}

std::size_t KeepAliveBackend::idle_containers() const {
  std::size_t n = 0;
  for (const auto& [key, entries] : idle_) {
    (void)key;
    n += entries.size();
  }
  return n;
}

void KeepAliveBackend::park(const spec::RuntimeKey& key,
                            engine::ContainerId id) {
  IdleEntry entry;
  entry.id = id;
  entry.idled_at = sim_.now();
  entry.expiry = sim_.after(keep_alive_, [this, key, id]() {
    auto it = idle_.find(key);
    if (it == idle_.end()) return;
    for (auto e = it->second.begin(); e != it->second.end(); ++e) {
      if (e->id == id) {
        idle_seconds_ += to_seconds(sim_.now() - e->idled_at);
        it->second.erase(e);
        engine_.stop_and_remove(id, [](Result<bool>) {});
        break;
      }
    }
    if (it->second.empty()) idle_.erase(it);
  });
  idle_[key].push_back(entry);
}

void KeepAliveBackend::dispatch(const engine::FunctionHandle& fn,
                                const engine::AppModel& app, Callback cb) {
  const spec::RuntimeKey key = fn.key;
  const auto it = idle_.find(key);
  if (it != idle_.end() && !it->second.empty()) {
    IdleEntry entry = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) idle_.erase(it);
    sim_.cancel(entry.expiry);
    idle_seconds_ += to_seconds(sim_.now() - entry.idled_at);
    engine_.exec(entry.id, app, [this, key, id = entry.id,
                                 cb = std::move(cb)](
                                    Result<engine::ExecReport> ran) {
      if (!ran.ok()) {
        engine_.stop_and_remove(id, [](Result<bool>) {});
        cb(Result<RequestOutcome>(ran.error()));
        return;
      }
      cb(ran_on(id, /*reused=*/true, kZeroDuration, ran.value()));
      park(key, id);  // timer resets after each use
    });
    return;
  }

  ++colds_;
  engine_.launch(fn, [this, key, app, cb = std::move(cb)](
                           Result<engine::LaunchReport> launched) {
    if (!launched.ok()) {
      cb(Result<RequestOutcome>(launched.error()));
      return;
    }
    const auto id = launched.value().container;
    const Duration provision = launched.value().breakdown.total();
    engine_.exec(id, app, [this, key, id, provision,
                           cb](Result<engine::ExecReport> ran) {
      if (!ran.ok()) {
        engine_.stop_and_remove(id, [](Result<bool>) {});
        cb(Result<RequestOutcome>(ran.error()));
        return;
      }
      cb(ran_on(id, /*reused=*/false, provision, ran.value()));
      park(key, id);
    });
  });
}

// --- HotCBackend -----------------------------------------------------------

HotCBackend::HotCBackend(engine::ContainerEngine& engine,
                         ControllerOptions options)
    : Backend(engine), controller_(engine, std::move(options)) {}

void HotCBackend::dispatch(const engine::FunctionHandle& fn,
                           const engine::AppModel& app, Callback cb) {
  dispatch_traced(/*trace_id=*/0, fn, app, std::move(cb));
}

void HotCBackend::dispatch_traced(std::uint64_t trace_id,
                                  const engine::FunctionHandle& fn,
                                  const engine::AppModel& app, Callback cb) {
  controller_.handle_traced(fn, app, trace_id, std::move(cb));
}

// --- PeriodicWarmupBackend -------------------------------------------------

PeriodicWarmupBackend::PeriodicWarmupBackend(engine::ContainerEngine& engine,
                                             Duration period,
                                             Duration keep_alive)
    : Backend(engine),
      sim_(engine.simulator()),
      period_(period),
      inner_(engine, keep_alive) {}

std::string PeriodicWarmupBackend::name() const {
  return "periodic-warmup(" + format_duration(period_) + ")";
}

void PeriodicWarmupBackend::dispatch(const engine::FunctionHandle& fn,
                                     const engine::AppModel& app,
                                     Callback cb) {
  inner_.dispatch(fn, app, std::move(cb));
}

void PeriodicWarmupBackend::register_warmup(const engine::FunctionHandle& fn,
                                            const engine::AppModel& ping_app,
                                            TimePoint until) {
  sim_.every(
      period_, [this, until]() { return sim_.now() <= until; },
      [this, fn = &fn, ping_app]() {
        ++pings_;
        inner_.dispatch(*fn, ping_app, [](Result<RequestOutcome>) {});
      });
}

}  // namespace hotc::faas
