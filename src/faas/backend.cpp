#include "faas/backend.hpp"

#include <utility>

namespace hotc::faas {

// --- ColdStartBackend ------------------------------------------------------

ColdStartBackend::ColdStartBackend(engine::ContainerEngine& engine)
    : Backend(engine) {}

void ColdStartBackend::dispatch(const engine::FunctionHandle& fn,
                                const engine::AppModel& app, Callback cb) {
  ++colds_;
  engine_.launch(fn, [this, app, cb = std::move(cb)](
                           Result<engine::LaunchReport> launched) {
    if (!launched.ok()) {
      cb(Result<DispatchReport>(launched.error()));
      return;
    }
    const auto id = launched.value().container;
    const Duration provision = launched.value().breakdown.total();
    engine_.exec(id, app, [this, id, provision,
                           cb](Result<engine::ExecReport> ran) {
      // Stateless default platform: the runtime is torn down regardless.
      engine_.stop_and_remove(id, [](Result<bool>) {});
      if (!ran.ok()) {
        cb(Result<DispatchReport>(ran.error()));
        return;
      }
      DispatchReport report;
      report.cold = true;
      report.provision = provision;
      report.exec = ran.value().total();
      report.container = id;
      cb(report);
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
        cb(Result<DispatchReport>(ran.error()));
        return;
      }
      DispatchReport report;
      report.cold = false;
      report.exec = ran.value().total();
      report.container = id;
      cb(report);
      park(key, id);  // timer resets after each use
    });
    return;
  }

  ++colds_;
  engine_.launch(fn, [this, key, app, cb = std::move(cb)](
                           Result<engine::LaunchReport> launched) {
    if (!launched.ok()) {
      cb(Result<DispatchReport>(launched.error()));
      return;
    }
    const auto id = launched.value().container;
    const Duration provision = launched.value().breakdown.total();
    engine_.exec(id, app, [this, key, id, provision,
                           cb](Result<engine::ExecReport> ran) {
      if (!ran.ok()) {
        engine_.stop_and_remove(id, [](Result<bool>) {});
        cb(Result<DispatchReport>(ran.error()));
        return;
      }
      DispatchReport report;
      report.cold = true;
      report.provision = provision;
      report.exec = ran.value().total();
      report.container = id;
      cb(report);
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
  const std::uint32_t slot = pending_.claim();
  pending_[slot] = std::move(cb);
  controller_.handle_traced(fn, app, trace_id,
                            [this, slot](Result<RequestOutcome> outcome) {
                              answer(slot, std::move(outcome));
                            });
}

void HotCBackend::answer(std::uint32_t slot,
                         Result<RequestOutcome> outcome) {
  const Callback cb = std::exchange(pending_[slot], nullptr);
  pending_.free(slot);
  if (!outcome.ok()) {
    cb(Result<DispatchReport>(outcome.error()));
    return;
  }
  DispatchReport report;
  // A donor conversion pays a (smaller) provision cost but is not a
  // cold start — keep the split honest for the summary counters.
  report.cold = !outcome.value().reused && !outcome.value().respecialized;
  report.respecialized = outcome.value().respecialized;
  report.provision = outcome.value().startup;
  report.exec = outcome.value().exec_total;
  report.container = outcome.value().container;
  cb(report);
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
        inner_.dispatch(*fn, ping_app, [](Result<DispatchReport>) {});
      });
}

}  // namespace hotc::faas
