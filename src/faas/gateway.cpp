#include "faas/gateway.hpp"

#include <utility>

namespace hotc::faas {

Gateway::Gateway(sim::Simulator& sim, Backend& backend,
                 GatewayOptions options)
    : sim_(sim),
      backend_(backend),
      options_(options),
      slots_(options.max_concurrent) {}

void Gateway::submit(std::uint64_t request_id, std::size_t config_index,
                     const engine::FunctionHandle& fn,
                     const engine::AppModel& app, Callback cb) {
  const std::uint32_t slot = records_.claim();
  Record& r = records_[slot];
  r.rec = CompletedRequest{};
  r.rec.id = request_id;
  r.rec.config_index = config_index;
  r.rec.submitted = sim_.now();
  r.fn = &fn;
  r.app = app;
  r.cb = std::move(cb);
  r.answered = false;

  // Optional client deadline: whichever of {completion, timer} fires first
  // answers the client; the other stands down.
  if (options_.request_timeout > kZeroDuration) {
    sim_.after(options_.request_timeout,
               [this, slot, generation = r.generation]() {
                 timeout(slot, generation);
               });
  }
  // The request reaches the gateway, then waits for a proxy worker slot —
  // this queueing is the congestion visible during bursts.
  sim_.after(options_.client_to_gateway, [this, slot]() { at_gateway(slot); });
}

void Gateway::timeout(std::uint32_t slot, std::uint32_t generation) {
  Record& r = records_[slot];
  if (r.generation != generation || r.answered) return;
  r.answered = true;
  const std::uint64_t request_id = r.rec.id;
  if (options_.tracer != nullptr) {
    options_.tracer->span(request_id, obs::Stage::kReturn, sim_.now(),
                          kZeroDuration, 0, obs::kNoShard, obs::kSpanError);
  }
  {
    const RankedGuard lock(mu_);
    ++timeouts_;
  }
  // The backend work runs on and frees the record when it completes.
  const Callback cb = std::exchange(r.cb, nullptr);
  cb(make_error<CompletedRequest>(
      "faas.timeout",
      "request " + std::to_string(request_id) + " exceeded deadline"));
}

void Gateway::at_gateway(std::uint32_t slot) {
  records_[slot].rec.t1 = sim_.now();
  slots_.acquire([this, slot]() {
    sim_.after(options_.gateway_proxy + options_.gateway_to_watchdog,
               [this, slot]() { at_watchdog(slot); });
  });
}

void Gateway::at_watchdog(std::uint32_t slot) {
  Record& r = records_[slot];
  r.rec.t2 = sim_.now();
  // Moments (1) -> (2): the client-to-watchdog forwarding hops.
  if (options_.tracer != nullptr) {
    options_.tracer->span(r.rec.id, obs::Stage::kForward, r.rec.submitted,
                          r.rec.t2 - r.rec.submitted);
  }
  backend_.dispatch_traced(r.rec.id, *r.fn, r.app,
                           [this, slot](Result<RequestOutcome> d) {
                             dispatched(slot, std::move(d));
                           });
}

void Gateway::dispatched(std::uint32_t slot, Result<RequestOutcome> d) {
  Record& r = records_[slot];
  if (!d.ok()) {
    if (options_.tracer != nullptr) {
      options_.tracer->span(r.rec.id, obs::Stage::kReturn, sim_.now(),
                            kZeroDuration, 0, obs::kNoShard,
                            obs::kSpanError);
    }
    slots_.release();
    finish(slot, Result<CompletedRequest>(d.error()));
    return;
  }
  // The backend completed provisioning + execution by "now"; recover the
  // interior timestamps from its phase durations.
  const RequestOutcome& outcome = d.value();
  r.rec.t4 = sim_.now();
  r.rec.t3 = r.rec.t4 - outcome.exec_total;
  r.rec.cold = outcome.cold();
  r.rec.provision = outcome.startup;
  const Duration back = options_.watchdog_shell +
                        options_.watchdog_to_gateway +
                        options_.gateway_to_client;
  sim_.after(back, [this, slot]() { at_client(slot); });
}

void Gateway::at_client(std::uint32_t slot) {
  Record& r = records_[slot];
  r.rec.t5 = r.rec.t4 + options_.watchdog_shell;
  r.rec.t6 = sim_.now();
  // Moments (4) -> (6): the watchdog-to-client return hops.
  if (options_.tracer != nullptr) {
    options_.tracer->span(r.rec.id, obs::Stage::kReturn, r.rec.t4,
                          r.rec.t6 - r.rec.t4, 0, obs::kNoShard,
                          r.rec.cold ? obs::kSpanCold : 0);
  }
  {
    const RankedGuard lock(mu_);
    ++handled_;
  }
  slots_.release();
  finish(slot, r.rec);
}

void Gateway::finish(std::uint32_t slot, Result<CompletedRequest> result) {
  Record& r = records_[slot];
  const Callback cb = std::exchange(r.cb, nullptr);
  const bool answered = r.answered;
  ++r.generation;
  records_.free(slot);
  // The client may submit again from its callback; the record is already
  // free for it.
  if (!answered) cb(std::move(result));
}

}  // namespace hotc::faas
