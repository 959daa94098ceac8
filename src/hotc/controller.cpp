#include "hotc/controller.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/log.hpp"
#include "share/donor_choice.hpp"

namespace hotc {

namespace {

std::string key_label(const spec::RuntimeKey& key) {
  // Decimal interned KeyId: matches DecisionRecord::key_id, so hotc_top
  // can join metric labels with journal records without hex munging.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key=\"%" PRIu32 "\"", key.id());
  return buf;
}

/// The pool entry of a runtime a request just brought up.
pool::PoolEntry fresh_entry(engine::ContainerId id,
                            const spec::RuntimeKey& key, TimePoint now) {
  pool::PoolEntry e;
  e.id = id;
  e.key = key;
  e.created_at = now;
  return e;
}

}  // namespace

HotCController::HotCController(engine::ContainerEngine& engine,
                               ControllerOptions options)
    : engine_(engine),
      sim_(engine.simulator()),
      options_(std::move(options)),
      pool_(options_.limits),
      rng_(options_.rng_seed) {
  HOTC_ASSERT(options_.predictor_factory != nullptr);
  if (options_.enable_sharing) {
    donors_ = std::make_unique<share::DonorRegistry>();
  }
  if (options_.tiering.enabled) {
    store_ = std::make_unique<snapshot::CheckpointStore>(
        options_.tiering.store);
  }
  // The tick tail hands both one cut of the controller's registry.
  HOTC_ASSERT_MSG(options_.slo == nullptr ||
                      &options_.slo->registry() == options_.registry,
                  "the SLO engine reads the controller's registry");
  HOTC_ASSERT_MSG(options_.tsdb == nullptr ||
                      &options_.tsdb->registry() == options_.registry,
                  "the time-series store reads the controller's registry");
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    obs_.prediction_samples = &reg.counter(
        "hotc_controller_prediction_samples_total",
        "Forecasts scored against the demand they predicted");
    obs_.prediction_error_sum = &reg.gauge(
        "hotc_controller_prediction_abs_error_sum",
        "Accumulated |forecast - observed demand| across all scored ticks");
    obs_.predicted_containers = &reg.gauge(
        "hotc_controller_predicted_containers",
        "Sum of per-key forecast targets at the last adaptive tick");
    obs_.respec_duration_ms = &reg.histogram(
        "hotc_share_respec_duration_ms",
        "Donor conversion duration (milliseconds)");
    obs_.snapshot_checkpoint_ms = &reg.histogram(
        "hotc_snapshot_checkpoint_duration_ms",
        "Demotion dump duration (milliseconds)");
    obs_.snapshot_restore_ms = &reg.histogram(
        "hotc_snapshot_restore_duration_ms",
        "Checkpoint-restore duration on the miss path (milliseconds)");
    collection_ =
        reg.collect([this](obs::MetricSink& out) { collect(out); });
  }
}

void HotCController::collect(obs::MetricSink& out) const {
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  const ControllerStats& s = stats_;
  out.counter("hotc_requests_total", "Requests handled by the controller",
              num(s.requests));
  out.counter("hotc_cold_starts_total",
              "Requests that required a new runtime", num(s.cold_starts));
  out.counter("hotc_reuses_total", "Requests served from the pool",
              num(s.reuses));
  out.counter("hotc_share_donor_lookups_total",
              "Cross-key donor searches on the miss path",
              num(s.donor_lookups));
  out.counter("hotc_share_donor_hits_total",
              "Requests served by a re-specialized sibling container",
              num(s.donor_hits));
  out.counter("hotc_share_respec_rejected_total",
              "Donors rejected by the re-specialization cost gate",
              num(s.respec_rejected));
  // Fractional totals are gauges: the time-series store encodes counters
  // as integers.
  out.gauge("hotc_share_respec_seconds",
            "Conversion time paid across donor hits (seconds)",
            s.donor_respec_seconds);
  out.gauge("hotc_cold_start_seconds",
            "Startup time paid across true cold starts (seconds)",
            s.cold_start_seconds);
  out.counter("hotc_restores_total",
              "Cold misses served by a checkpoint restore", num(s.restores));
  out.counter("hotc_checkpoints_total",
              "Demotion dumps taken instead of stops", num(s.checkpoints));
  out.counter("hotc_controller_prewarm_total",
              "Algorithm 3 predictive warm-up launches",
              num(s.prewarm_launches));
  out.counter("hotc_controller_retire_total",
              "Pooled runtimes retired by the adaptive loop (no pressure)",
              num(s.retired));
  out.counter("hotc_controller_evict_total",
              "Pooled runtimes evicted under capacity/memory pressure",
              num(s.evicted));
  out.counter("hotc_drift_restarts_total",
              "Predictor restarts forced by the forecast-drift detector",
              num(s.drift_restarts));
  out.gauge("hotc_pool_idle_container_seconds",
            "Accumulated idle container-seconds (cost proxy)",
            s.idle_container_seconds);
  out.gauge("hotc_pool_available", "Existing-Available pooled containers",
            num(pool_.total_available()));
  out.gauge("hotc_pool_paused", "Frozen pooled containers",
            num(pool_.paused_count()));
  keys_.for_each([&out, &num](const KeyState& state) {
    const std::string label = key_label(state.key);
    out.counter("hotc_key_requests_total",
                "Requests handled, per runtime key", num(state.requests),
                label);
    out.counter("hotc_key_cold_total",
                "True cold starts paid, per runtime key",
                num(state.cold_starts), label);
  });
  if (store_ != nullptr) {
    out.counter("hotc_snapshot_demotes_total",
                "Runtimes demoted into the checkpoint store",
                num(store_->demotes()));
    out.counter("hotc_snapshot_restores_total",
                "Runtimes restored from the checkpoint store",
                num(store_->restores()));
    out.counter("hotc_snapshot_evictions_total",
                "Snapshots evicted from the checkpoint store",
                num(store_->evictions()));
    out.counter("hotc_snapshot_rejected_total",
                "Snapshot admissions rejected by quota or budget",
                num(store_->rejected()));
    out.gauge("hotc_snapshot_store_bytes",
              "Disk bytes held by the checkpoint store",
              num(store_->total_bytes()));
    out.gauge("hotc_snapshot_store_entries",
              "Snapshots resident in the checkpoint store",
              num(store_->entries()));
  }
  if (donors_ != nullptr) {
    out.counter("hotc_share_registry_found_total",
                "Donor lookups that located an idle sibling",
                num(donors_->found()));
  }
}

void HotCController::emit_span(std::uint64_t trace_id, obs::Stage stage,
                               TimePoint start, Duration dur,
                               std::uint64_t key_hash, std::uint8_t flags) {
  if (options_.tracer != nullptr) {
    options_.tracer->span(trace_id, stage, start, dur, key_hash,
                          obs::kNoShard, flags);
  }
}

HotCController::KeyState& HotCController::key_state(
    const spec::RuntimeKey& key, const engine::FunctionHandle& fn) {
  if (KeyState* known = keys_.find(key.id())) return *known;
  const std::uint32_t slot = keys_.insert(key.id());
  KeyState& state = keys_[slot];
  state.key = key;
  state.fn = &fn;
  state.predictor = options_.predictor_factory();
  state.drift = obs::PageHinkley(options_.drift);
  // Every key the controller has seen is a potential donor for its
  // compatibility-class siblings.
  if (donors_ != nullptr) donors_->record(key, fn);
  const spec::InternTextLess less;
  tick_order_.insert(
      std::upper_bound(tick_order_.begin(), tick_order_.end(), key.id(),
                       [this, &less](spec::KeyId id, std::uint32_t i) {
                         return less(id, keys_[i].key.id());
                       }),
      slot);
  return state;
}

void HotCController::end_busy(const spec::RuntimeKey& key) {
  KeyState* state = keys_.find(key.id());
  if (state != nullptr && state->busy_now > 0) --state->busy_now;
}

void HotCController::handle_traced(const engine::FunctionHandle& fn,
                                   const engine::AppModel& app,
                                   std::uint64_t trace_id, Callback cb) {
  if (trace_id == 0 && options_.tracer != nullptr) {
    trace_id = options_.tracer->next_trace_id();
  }
  const TimePoint arrival = sim_.now();
  const spec::RuntimeKey key =
      options_.use_subset_key ? fn.subset_key() : fn.key;
  KeyState& state = key_state(key, fn);
  ++stats_.requests;
  ++state.requests;
  ++state.busy_now;
  state.interval_peak = std::max(state.interval_peak, state.busy_now);
  ++state.interval_requests;
  // Canonicalisation is synchronous, so the parse span is instantaneous
  // in virtual time; it still anchors the trace to its runtime key.
  emit_span(trace_id, obs::Stage::kParse, arrival, kZeroDuration,
            key.hash());

  // The request's record until its runtime's readmit.  Assigning into a
  // recycled record reuses its storage (the app name, the callback).
  const std::uint32_t slot = in_flight_.claim();
  InFlight& f = in_flight_[slot];
  f.fn = &fn;
  f.app = app;
  f.key = key;
  f.arrival = arrival;
  f.trace_id = trace_id;
  f.outcome = RequestOutcome{};
  f.cb = std::move(cb);

  // Algorithm 1: reuse when Existing-Available, else start a new runtime.
  auto entry = pool_.acquire(key, arrival);
  emit_span(trace_id, obs::Stage::kPoolLookup, arrival, kZeroDuration,
            key.hash(), entry.has_value() ? obs::kSpanHit : 0);
  if (entry.has_value()) {
    ++stats_.reuses;
    emit_span(trace_id, obs::Stage::kReuse, arrival, kZeroDuration,
              key.hash(), obs::kSpanHit);
    notify_pool_change(key);
    f.entry = *entry;
    f.outcome.reused = true;
    run_on(slot);
    return;
  }

  // Cross-key sharing: a compatible sibling's idle container may be
  // convertible for less than a cold start (src/share/).
  if (donors_ != nullptr && try_donor(slot)) return;

  provision_cold(slot);
}

bool HotCController::try_donor(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  const TimePoint lookup_start = sim_.now();
  ++stats_.donor_lookups;
  // The request's side of the price: its cold start and its image, whose
  // missing layers a donor of another tag must fetch.  An unknown image
  // prices as an empty one; its zero cold estimate fails the gate anyway.
  const auto choice = share::choose_donor(
      *donors_, pool_, engine_.cost_model(), *f.fn, f.key,
      engine_.estimate_startup(*f.fn).total(),
      engine_.image_store().missing_bytes(f.fn->image),
      options_.share_max_cost_ratio);
  emit_span(f.trace_id, obs::Stage::kDonorLookup, lookup_start,
            sim_.now() - lookup_start, f.key.hash(),
            choice.has_value() ? obs::kSpanHit : 0);
  if (!choice.has_value()) return false;
  if (!choice->viable) {
    ++stats_.respec_rejected;
    return false;
  }

  const spec::RuntimeKey& donor_key = choice->donor.key;
  auto donor = pool_.acquire_for_donation(donor_key, sim_.now());
  if (!donor.has_value()) return false;  // stock vanished since the probe
  notify_pool_change(donor_key);
  if (donor->paused) {
    // A frozen donor would pay a thaw on top of the conversion; put it
    // back untouched and let the cold path run.
    pool_.add_available(*donor, sim_.now());
    notify_pool_change(donor_key);
    return false;
  }

  f.started = sim_.now();
  f.entry = *donor;
  engine_.respecialize(donor->id, *f.fn,
                       [this, slot](Result<engine::RespecBreakdown> r) {
                         converted(slot, std::move(r));
                       });
  return true;
}

void HotCController::converted(std::uint32_t slot,
                               Result<engine::RespecBreakdown> r) {
  InFlight& f = in_flight_[slot];
  if (!r.ok()) {
    emit_span(f.trace_id, obs::Stage::kRespecialize, f.started,
              sim_.now() - f.started, f.key.hash(), obs::kSpanError);
    // The donor is in an unknown state; drop it and fall back to an
    // ordinary cold start for the request.
    engine_.stop_and_remove(f.entry.id, [](Result<bool>) {});
    provision_cold(slot);
    return;
  }
  const Duration paid = r.value().total();
  ++stats_.donor_hits;
  stats_.donor_respec_seconds += to_seconds(paid);
  if (obs_.respec_duration_ms != nullptr) {
    obs_.respec_duration_ms->observe(to_milliseconds(paid));
  }
  emit_span(f.trace_id, obs::Stage::kRespecialize, f.started, paid,
            f.key.hash(), obs::kSpanHit);
  f.entry.key = f.key;
  f.entry.respecialized = true;  // counted once at re-admission
  f.entry.prewarmed = false;
  f.entry.paused = false;
  f.entry.app_tag = 0;  // the wipe discarded the donor's app state
  donors_->record(f.key, *f.fn);
  f.outcome.startup = paid;
  run_on(slot);
}

void HotCController::provision_cold(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  ++stats_.cold_starts;
  if (KeyState* state = keys_.find(f.key.id())) ++state->cold_starts;
  enforce_pressure();  // make room before allocating a new runtime

  // Tiered warm state: a demoted runtime parked in the checkpoint store
  // beats a full cold boot — the restore is consuming, so the conservation
  // ledger sees demotes == restores + evictions + still-stored.
  if (store_ != nullptr) {
    const auto snap = store_->take(f.key.id(), sim_.now());
    if (snap.has_value()) {
      f.started = sim_.now();
      engine_.restore_container(
          snap->container, [this, slot](Result<engine::LaunchReport> r) {
            restored(slot, std::move(r));
          });
      return;
    }
  }

  launch_cold(slot);
}

void HotCController::restored(std::uint32_t slot,
                              Result<engine::LaunchReport> r) {
  InFlight& f = in_flight_[slot];
  if (!r.ok()) {
    // The parked container died out from under the store (the snapshot
    // was already consumed); fall back to a plain launch — the cold start
    // was counted above.
    emit_span(f.trace_id, obs::Stage::kRestore, f.started,
              sim_.now() - f.started, f.key.hash(),
              obs::kSpanCold | obs::kSpanError);
    launch_cold(slot);
    return;
  }
  ++stats_.restores;
  const Duration paid = r.value().breakdown.total();
  stats_.cold_start_seconds += to_seconds(paid);
  if (obs_.snapshot_restore_ms != nullptr) {
    obs_.snapshot_restore_ms->observe(to_milliseconds(paid));
  }
  emit_span(f.trace_id, obs::Stage::kRestore, f.started, paid, f.key.hash(),
            obs::kSpanCold);
  f.entry = fresh_entry(r.value().container, f.key, sim_.now());
  f.entry.restored = true;  // counted once at re-admission
  f.outcome.startup = paid;
  run_on(slot);
}

void HotCController::launch_cold(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  f.started = f.arrival;  // a cold start's span covers the request's wait
  engine_.launch(*f.fn, [this, slot](Result<engine::LaunchReport> r) {
    launched(slot, std::move(r));
  });
}

void HotCController::launched(std::uint32_t slot,
                              Result<engine::LaunchReport> r) {
  InFlight& f = in_flight_[slot];
  if (!r.ok()) {
    emit_span(f.trace_id, obs::Stage::kColdStart, f.started,
              sim_.now() - f.started, f.key.hash(),
              obs::kSpanCold | obs::kSpanError);
    end_busy(f.key);
    fail(slot, r.error());
    return;
  }
  const Duration paid = r.value().breakdown.total();
  // A relaunch after a failed thaw serves a request counted as a reuse,
  // so its launch is not a counted cold start.
  if (!f.outcome.reused) stats_.cold_start_seconds += to_seconds(paid);
  emit_span(f.trace_id, obs::Stage::kColdStart, f.started, paid,
            f.key.hash(), obs::kSpanCold);
  f.entry = fresh_entry(r.value().container, f.key, sim_.now());
  f.outcome.reused = false;
  f.outcome.startup = paid;
  run_on(slot);
}

void HotCController::run_on(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  f.started = sim_.now();
  if (f.entry.paused) {
    // The pooled runtime is frozen: thaw before execution.  The fault-in
    // latency lands on this request, still far below a cold start.
    engine_.resume(f.entry.id, [this, slot](Result<bool> r) {
      thawed(slot, std::move(r));
    });
    return;
  }
  f.outcome.prewarmed = f.entry.prewarmed;
  f.outcome.restored = f.entry.restored;
  f.outcome.respecialized = f.entry.respecialized;
  f.outcome.container = f.entry.id;
  auto done = [this, slot](Result<engine::ExecReport> r) {
    exec_finished(slot, std::move(r));
  };
  if (options_.use_subset_key) {
    // Subset-key reuse: the pooled container may differ in re-applicable
    // fields; the engine applies the delta and charges it to this request.
    engine_.exec_as(f.entry.id, f.app, *f.fn, done);
  } else {
    engine_.exec(f.entry.id, f.app, done);
  }
}

void HotCController::thawed(std::uint32_t slot, Result<bool> r) {
  InFlight& f = in_flight_[slot];
  if (!r.ok()) {
    emit_span(f.trace_id, obs::Stage::kResume, f.started,
              sim_.now() - f.started, f.key.hash(), obs::kSpanError);
    // A runtime that cannot thaw is not trusted; replace it with a fresh
    // cold start.
    engine_.stop_and_remove(f.entry.id, [](Result<bool>) {});
    f.started = sim_.now();
    engine_.launch(*f.fn, [this, slot](Result<engine::LaunchReport> l) {
      launched(slot, std::move(l));
    });
    return;
  }
  emit_span(f.trace_id, obs::Stage::kResume, f.started,
            sim_.now() - f.started, f.key.hash());
  f.entry.paused = false;
  f.outcome.resumed = true;
  run_on(slot);
}

void HotCController::exec_finished(std::uint32_t slot,
                                   Result<engine::ExecReport> r) {
  InFlight& f = in_flight_[slot];
  end_busy(f.key);
  const std::uint8_t cold_flag =
      f.outcome.reused ? obs::kSpanHit : obs::kSpanCold;
  if (!r.ok()) {
    emit_span(f.trace_id, obs::Stage::kExec, f.started,
              sim_.now() - f.started, f.key.hash(),
              cold_flag | obs::kSpanError);
    // A container that failed to execute is not trusted back into the
    // pool; tear it down.
    engine_.stop_and_remove(f.entry.id, [](Result<bool>) {});
    fail(slot, r.error());
    return;
  }
  emit_span(f.trace_id, obs::Stage::kExec, f.started, r.value().total(),
            f.key.hash(), cold_flag);
  f.outcome.exec_total = r.value().total();
  f.outcome.total = sim_.now() - f.arrival;

  // The response goes back to the client *now*; cleanup (Algorithm 2)
  // happens off the critical path and only then does the container
  // become Existing-Available again.  The record stays claimed until the
  // readmit, so a request the client submits from its callback takes
  // another slot (and records never move).
  std::exchange(f.cb, nullptr)(f.outcome);

  f.started = sim_.now();
  engine_.clean(f.entry.id, [this, slot](Result<bool> wiped) {
    cleaned(slot, std::move(wiped));
  });
}

void HotCController::cleaned(std::uint32_t slot, Result<bool> r) {
  InFlight& f = in_flight_[slot];
  pool::PoolEntry e = f.entry;
  const std::uint64_t trace_id = f.trace_id;
  const TimePoint clean_start = f.started;
  in_flight_.free(slot);
  if (!r.ok()) {
    emit_span(trace_id, obs::Stage::kClean, clean_start,
              sim_.now() - clean_start, e.key.hash(), obs::kSpanError);
    engine_.stop_and_remove(e.id, [](Result<bool>) {});
    return;
  }
  emit_span(trace_id, obs::Stage::kClean, clean_start,
            sim_.now() - clean_start, e.key.hash());
  e.prewarmed = false;  // once used, it is an ordinary pooled runtime
  pool_.add_available(e, sim_.now());
  emit_span(trace_id, obs::Stage::kReadmit, sim_.now(), kZeroDuration,
            e.key.hash());
  notify_pool_change(e.key);
}

void HotCController::fail(std::uint32_t slot, const Error& error) {
  const Callback cb = std::exchange(in_flight_[slot].cb, nullptr);
  in_flight_.free(slot);
  cb(Result<RequestOutcome>(error));
}

void HotCController::enforce_pressure() {
  // Victims are stopped asynchronously, so track what this pass already
  // committed to releasing and decide on the adjusted numbers.
  std::size_t pending_stops = 0;
  Bytes pending_bytes = 0;
  const Bytes total_mem = engine_.host().memory_total;

  while (pool_.total_available() > 0) {
    const std::size_t live = engine_.live_count() - pending_stops;
    const double mem_util =
        static_cast<double>(engine_.memory_used() - pending_bytes) /
        static_cast<double>(total_mem);
    const bool over_capacity = live > options_.limits.max_live;
    const bool over_memory =
        mem_util > options_.limits.memory_threshold ||
        engine_.swap_used() > 0;
    if (!over_capacity && !over_memory) break;

    auto victim = pool_.select_victim(options_.eviction, &rng_);
    if (!victim.has_value()) break;
    const engine::Container* c = engine_.find(victim->id);
    pending_bytes += c != nullptr ? c->idle_memory : 0;
    ++pending_stops;
    ++stats_.evicted;
    pool_.count_eviction();
    retire_entry(*victim, /*pressure=*/true);
  }
}

void HotCController::retire_entry(const pool::PoolEntry& entry,
                                  bool pressure) {
  // Tiered warm state: a victim the demotion plan admits parks in the
  // checkpoint store instead of dying.  Paused entries skip the tier (the
  // engine demotes Idle only).
  const auto plan = store_ != nullptr && !entry.paused
                        ? demotion_plan(entry)
                        : std::nullopt;
  const bool removed = plan.has_value()
                           ? pool_.remove_for_checkpoint(entry.key, entry.id)
                           : pool_.remove(entry.key, entry.id);
  if (!removed) return;  // raced with acquire
  if (!pressure) ++stats_.retired;
  // Evict spans carry no request attribution (trace id 0): the controller
  // initiates them, not a client.
  if (!plan.has_value()) {
    emit_span(0, obs::Stage::kEvict, sim_.now(), kZeroDuration,
              entry.key.hash());
  }
  notify_pool_change(entry.key);
  if (plan.has_value()) {
    demote(entry, *plan);
  } else {
    engine_.stop_and_remove(entry.id, [](Result<bool>) {});
  }
}

std::optional<snapshot::SnapshotMeta> HotCController::demotion_plan(
    const pool::PoolEntry& entry) const {
  const KeyState* state = keys_.find(entry.key.id());
  const engine::Container* c = engine_.find(entry.id);
  if (state == nullptr || c == nullptr) return std::nullopt;
  const engine::FunctionHandle& fn = *state->fn;
  // The engine's dump model: the idle resident set plus ~2 MiB of metadata.
  const Bytes image_bytes = c->idle_memory + mib(2);
  return snapshot::plan_demotion(
      options_.tiering, entry.key.id(), fn.tenant, entry.id, image_bytes,
      engine_.cost_model().restore_time(image_bytes, fn.spec),
      engine_.estimate_startup(fn).total());
}

void HotCController::demote(const pool::PoolEntry& entry,
                            snapshot::SnapshotMeta meta) {
  ++stats_.checkpoints;
  const TimePoint demote_start = sim_.now();
  engine_.demote(
      entry.id,
      [this, entry, meta,
       demote_start](Result<engine::ContainerEngine::DemoteReport> r) mutable {
        if (!r.ok()) {
          emit_span(0, obs::Stage::kCheckpoint, demote_start,
                    sim_.now() - demote_start, entry.key.hash(),
                    obs::kSpanError);
          engine_.stop_and_remove(entry.id, [](Result<bool>) {});
          return;
        }
        emit_span(0, obs::Stage::kCheckpoint, demote_start,
                  r.value().duration, entry.key.hash());
        if (obs_.snapshot_checkpoint_ms != nullptr) {
          obs_.snapshot_checkpoint_ms->observe(
              to_milliseconds(r.value().duration));
        }
        meta.created_at = sim_.now();
        const auto admitted = store_->admit(meta, sim_.now());
        for (const snapshot::SnapshotMeta& evicted : admitted.evicted) {
          engine_.discard_checkpointed(evicted.container, [](Result<bool>) {});
        }
        if (!admitted.accepted) {
          // Quota/budget said no after the dump (e.g. the per-tenant
          // quota filled meanwhile): drop the parked container.
          engine_.discard_checkpointed(entry.id, [](Result<bool>) {});
        }
      });
}

void HotCController::prewarm(const KeyState& state) {
  ++stats_.prewarm_launches;
  const TimePoint launch_start = sim_.now();
  engine_.launch(*state.fn, [this, key = state.key,
                             launch_start](Result<engine::LaunchReport> r) {
                   if (!r.ok()) {
                     emit_span(0, obs::Stage::kPrewarm, launch_start,
                               sim_.now() - launch_start, key.hash(),
                               obs::kSpanError);
                     return;  // host refused; demand stays cold
                   }
                   emit_span(0, obs::Stage::kPrewarm, launch_start,
                             r.value().breakdown.total(), key.hash());
                   pool::PoolEntry e;
                   e.id = r.value().container;
                   e.key = key;
                   e.created_at = sim_.now();
                   e.prewarmed = true;
                   pool_.add_available(e, sim_.now());
                   notify_pool_change(key);
                 });
}

namespace {

std::uint16_t clamp_u16(std::size_t v) {
  return static_cast<std::uint16_t>(std::min<std::size_t>(v, 0xffff));
}

}  // namespace

void HotCController::adaptive_tick() {
  const TimePoint now = sim_.now();
  ++tick_;
  const double interval_s = to_seconds(options_.adaptive_interval);
  stats_.idle_container_seconds +=
      static_cast<double>(pool_.total_available()) * interval_s;

  std::size_t target_sum = 0;
  std::size_t tick_prewarms = 0;
  std::size_t tick_retires = 0;
  const std::uint64_t evicted_before = stats_.evicted;
  // By index: a KeyState reference stays valid, and the bound is re-read,
  // should a synchronous callback ever add a key mid-tick.
  for (std::size_t i = 0; i < tick_order_.size(); ++i) {
    KeyState& state = keys_[tick_order_[i]];
    const spec::RuntimeKey key = state.key;
    // Observe this interval's demand: the peak number of simultaneously
    // busy containers of this runtime type.
    const auto demand = static_cast<double>(state.interval_peak);
    bool drift_fired = false;
    // Score the forecast the previous tick made for *this* interval
    // before the predictor sees the new observation (Algorithm 3's
    // smoothing error, per key and accumulated).
    if (state.last_forecast >= 0.0) {
      const double err = std::abs(state.last_forecast - demand);
      if (obs_.prediction_samples != nullptr) {
        obs_.prediction_samples->inc();
        obs_.prediction_error_sum->add(err);
        if (state.error_gauge == nullptr) {
          state.error_gauge = &options_.registry->gauge(
              "hotc_controller_prediction_abs_error",
              "Last interval's |forecast - observed demand|, per runtime key",
              key_label(key));
        }
        state.error_gauge->set(err);
      }
      // Drift feedback, before the predictor sees this tick's demand:
      // the restarted smoother re-seeds on it, so recovery starts now.
      if (options_.enable_drift_detection && state.drift.observe(err)) {
        drift_fired = true;
        state.predictor->restart_smoothing();
        state.donation_muted_until = tick_ + options_.drift.cooldown_ticks;
        ++stats_.drift_restarts;
        emit_span(0, obs::Stage::kDriftRestart, now, kZeroDuration,
                  key.hash());
      }
    }
    state.predictor->observe(demand);
    const double forecast = std::max(0.0, state.predictor->predict());
    state.last_forecast = forecast;
    state.interval_peak = state.busy_now;
    state.interval_requests = 0;

    const auto target = static_cast<std::size_t>(std::ceil(forecast));
    target_sum += target;

    // The per-key resize decision is the pure function decide_tick()
    // (obs/journal.hpp) over exactly the inputs journalled below — the
    // replay harness re-derives it from the record alone.
    obs::TickInputs in;
    in.forecast = forecast;
    in.available = pool_.num_available(key);
    in.have = in.available + state.busy_now;
    const std::size_t live = engine_.live_count();
    in.headroom = live < options_.limits.max_live
                      ? options_.limits.max_live - live
                      : 0;
    in.prewarm_enabled = options_.enable_prewarm;
    in.retire_enabled = options_.enable_retire;
    in.sharing_enabled = donors_ != nullptr;
    in.donation_muted = tick_ <= state.donation_muted_until;
    const obs::TickDecision decision = obs::decide_tick(in);

    if (donors_ != nullptr) {
      // Donor nomination tracks the *unrounded* forecast: a key whose
      // warm stock clearly exceeds predicted demand is over-provisioned
      // and may give up even its last idle runtime to a sibling.  The
      // ceil() used for the prewarm/retire target would keep every
      // once-used key "needed" forever while its smoothed forecast
      // decays toward (but never reaches) zero.  A drift-muted key is
      // additionally barred from find_donor entirely — its surplus is
      // computed from a forecast the detector just distrusted.
      donors_->set_flags(state.fn->compat(), key, decision.nominate_donor,
                         in.donation_muted);
    }
    for (std::size_t p = 0; p < decision.prewarms; ++p) prewarm(state);
    if (decision.retires > 0) {
      auto entries = pool_.entries(key);  // oldest first
      for (std::size_t r = 0; r < decision.retires && r < entries.size();
           ++r) {
        retire_entry(entries[r], /*pressure=*/false);
      }
    }
    tick_prewarms += decision.prewarms;
    tick_retires += decision.retires;

    if (options_.journal != nullptr) {
      obs::DecisionRecord rec;
      rec.tick = tick_;
      rec.key_hash = key.hash();
      rec.key_id = key.id();
      rec.demand = demand;
      rec.smoothed = state.predictor->smoothed_value();
      rec.forecast = forecast;
      rec.markov_region =
          static_cast<std::int8_t>(state.predictor->markov_region());
      rec.have = clamp_u16(in.have);
      rec.available = clamp_u16(in.available);
      rec.headroom = clamp_u16(in.headroom);
      rec.prewarms = clamp_u16(decision.prewarms);
      rec.retires = clamp_u16(decision.retires);
      rec.flags = static_cast<std::uint8_t>(
          (drift_fired ? obs::kJournalDriftRestart : 0) |
          (decision.nominate_donor ? obs::kJournalDonorNominated : 0) |
          (in.donation_muted ? obs::kJournalDonationMuted : 0));
      options_.journal->append(rec);
    }
  }

  if (obs_.predicted_containers != nullptr) {
    obs_.predicted_containers->set(static_cast<double>(target_sum));
  }

  if (options_.pause_idle_after > kZeroDuration) pause_stale_entries(now);

  // Fixed idle cap, if configured (ablation vs keep-alive baselines).
  if (options_.idle_cap > kZeroDuration) {
    for (const auto& key : pool_.keys()) {
      for (const auto& entry : pool_.entries(key)) {
        if (now - entry.returned_at > options_.idle_cap) {
          retire_entry(entry, /*pressure=*/false);
        }
      }
    }
  }

  enforce_pressure();

  if (options_.journal != nullptr) {
    // Per-tick summary: evictions and donations are global effects (pool
    // pressure, request-path donor hits) the per-key records cannot carry.
    obs::DecisionRecord sum;
    sum.tick = tick_;
    sum.flags = obs::kJournalSummary;
    sum.prewarms = clamp_u16(tick_prewarms);
    sum.retires = clamp_u16(tick_retires);
    sum.evictions = clamp_u16(
        static_cast<std::size_t>(stats_.evicted - evicted_before));
    sum.donations = clamp_u16(
        static_cast<std::size_t>(stats_.donor_hits - summary_donor_hits_));
    summary_donor_hits_ = stats_.donor_hits;
    options_.journal->append(sum);
  }

  if (options_.slo != nullptr || options_.tsdb != nullptr) {
    // One registry cut per tick, shared by the SLO engine and the
    // time-series store: the tick tail's only read of the registry.
    const obs::RegistrySnapshot cut = options_.registry->snapshot();
    if (options_.slo != nullptr) options_.slo->evaluate_snapshot(tick_, cut);
    if (options_.tsdb != nullptr) options_.tsdb->sample_snapshot(tick_, cut);
  }
  if (options_.blackbox != nullptr) {
    options_.blackbox->note_tick(tick_);
    if (options_.slo != nullptr) {
      options_.blackbox->update_slo_mirror(options_.slo->status(),
                                           options_.slo->alerts_fired());
    }
  }
}

void HotCController::pause_stale_entries(TimePoint now) {
  for (const auto& key : pool_.keys()) {
    for (const auto& entry : pool_.entries(key)) {
      if (entry.paused) continue;
      if (now - entry.returned_at <= options_.pause_idle_after) continue;
      // Mark in the pool first so a racing acquire sees the flag, then
      // freeze the container (engine state flips synchronously too).
      if (pool_.mark_paused(key, entry.id)) {
        engine_.pause(entry.id, [](Result<bool>) {});
      }
    }
  }
}

void HotCController::start_adaptive_loop(TimePoint until) {
  HOTC_ASSERT_MSG(!adaptive_running_, "adaptive loop already running");
  adaptive_running_ = true;
  adaptive_until_ = until;
  sim_.every(
      options_.adaptive_interval,
      [this]() { return adaptive_running_ && sim_.now() <= adaptive_until_; },
      [this]() { adaptive_tick(); });
}

std::optional<double> HotCController::current_forecast(
    const spec::RuntimeKey& key) const {
  const KeyState* state = keys_.find(key.id());
  if (state == nullptr) return std::nullopt;
  return state->predictor->predict();
}

}  // namespace hotc
