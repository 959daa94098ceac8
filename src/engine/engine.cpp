#include "engine/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "core/log.hpp"

namespace hotc::engine {
namespace {
/// Memory the host OS itself occupies (kernel, daemons).
constexpr Bytes kOsBaseline = mib(180);
/// Bookkeeping CPU overhead per live container — calibrated so ten live
/// containers cost "less than 1 %" of CPU (Fig. 15(a)).
constexpr double kIdleCpuPerContainer = 0.0008;

/// Resource releases on the teardown paths are best-effort (the container
/// is going away regardless), but an error must not be silently dropped:
/// it means the engine's own bookkeeping disagrees with the managers.
template <typename T>
void warn_if_failed(const Result<T>& r, const char* what) {
  if (!r.ok()) {
    HOTC_WARN("engine") << what << " failed: " << r.error().to_string();
  }
}
}  // namespace

ContainerEngine::ContainerEngine(sim::Simulator& sim, HostProfile profile)
    : sim_(sim),
      cost_(std::move(profile)),
      memory_(cost_.host().memory_total),
      cpu_(cost_.host().cores) {
  // The OS baseline always occupies part of the pool.
  memory_.reserve(std::min(kOsBaseline, cost_.host().memory_total / 2));
}

void ContainerEngine::set_state(Container& c, ContainerState next) {
  HOTC_ASSERT_MSG(transition_allowed(c.state, next),
                  "illegal container state transition");
  --state_counts_[state_index(c.state)];
  ++state_counts_[state_index(next)];
  c.state = next;
  audit_counts();
  ++transitions_[state_index(next)];
}

void ContainerEngine::add_container(Container c) {
  HOTC_ASSERT(c.state == ContainerState::kProvisioning);
  const std::uint32_t slot = containers_.insert(c.id);
  containers_[slot].c = std::move(c);
  ++state_counts_[state_index(ContainerState::kProvisioning)];
  audit_counts();
}

void ContainerEngine::erase_container(ContainerId id) {
  const Entry* e = containers_.find(id);
  HOTC_ASSERT(e != nullptr);
  --state_counts_[state_index(e->c.state)];
  containers_.erase(id);
  audit_counts();
}

void ContainerEngine::audit_counts() const {
#ifdef HOTC_AUDIT
  std::array<std::size_t, kContainerStateCount> scanned{};
  containers_.for_each(
      [&scanned](const Entry& e) { ++scanned[state_index(e.c.state)]; });
  if (scanned != state_counts_) {
    HOTC_ERROR("engine.audit")
        << "container state counts disagree with a scan of the engine";
    std::abort();
  }
#endif
}

void ContainerEngine::attach_metrics(obs::Registry& registry) {
  HOTC_ASSERT_MSG(clean_duration_ms_ == nullptr,
                  "engine metrics attached twice");
  clean_duration_ms_ = &registry.histogram(
      "hotc_engine_clean_duration_ms",
      "Algorithm 2 volume wipe + remount duration (milliseconds)");
  collection_ = registry.collect([this](obs::MetricSink& out) {
    out.gauge("hotc_engine_containers_live",
              "Containers in any non-removed state",
              static_cast<double>(live_count()));
    out.gauge("hotc_engine_containers_idle", "Existing-Available containers",
              static_cast<double>(idle_count()));
    out.gauge("hotc_engine_containers_busy",
              "Containers executing or cleaning",
              static_cast<double>(busy_count()));
    out.gauge("hotc_engine_memory_used_bytes", "Host memory in use",
              static_cast<double>(memory_used()));
    out.gauge("hotc_engine_swap_used_bytes", "Host swap in use",
              static_cast<double>(swap_used()));
    out.gauge("hotc_engine_cpu_utilization",
              "Fraction of host cores busy plus idle-container overhead",
              cpu_utilization());
    out.counter("hotc_engine_launches_total", "Containers ever launched",
                static_cast<double>(launches_));
    out.counter("hotc_engine_execs_total", "Function executions ever run",
                static_cast<double>(execs_));
    out.counter("hotc_engine_launch_failures_total",
                "Injected/real launch failures",
                static_cast<double>(launch_failures_));
    out.counter("hotc_engine_exec_crashes_total", "Function crashes",
                static_cast<double>(exec_crashes_));
    for (std::size_t s = 0; s < kContainerStateCount; ++s) {
      out.counter("hotc_engine_state_transitions_total",
                  "Container FSM transitions, by destination state",
                  static_cast<double>(transitions_[s]),
                  std::string("to=\"") +
                      to_string(static_cast<ContainerState>(s)) + "\"");
    }
  });
}

bool ContainerEngine::reserve_or_swap(Bytes amount) {
  if (memory_.reserve(amount)) return false;
  // Pool exhausted: the host swaps.  Track it separately so the monitor
  // (and HotC's pressure heuristic) can see used_swap grow.
  swap_used_ += amount;
  return true;
}

void ContainerEngine::release_memory(Bytes amount) {
  // Swap-resident pages are released first (the OS reclaims them eagerly,
  // per the Fig. 15(b) observation).
  const Bytes from_swap = std::min(amount, swap_used_);
  swap_used_ -= from_swap;
  memory_.release(amount - from_swap);
}

void ContainerEngine::preload_image(const spec::ImageRef& ref) {
  auto image = registry_.resolve(ref);
  if (image.ok()) store_.commit(image.value());
}

void ContainerEngine::set_fault_model(const FaultModel& faults) {
  faults_ = faults;
  fault_rng_ = Rng(faults.seed);
}

StartupBreakdown ContainerEngine::estimate_startup(
    const FunctionHandle& fn) const {
  if (!fn.resolved()) return StartupBreakdown{};
  const spec::RunSpec& spec = fn.spec;
  const Bytes missing = store_.missing_bytes(fn.image);
  const bool create_net =
      (spec.network == spec::NetworkMode::kOverlay && !overlay_created_) ||
      (spec.network == spec::NetworkMode::kRouting && !routing_created_);
  return cost_.startup(spec, fn.image, missing, create_net);
}

void ContainerEngine::launch(const FunctionHandle& fn, LaunchCallback cb) {
  if (!fn.resolved()) {
    cb(Result<LaunchReport>(*fn.image_error));
    return;
  }
  const spec::RunSpec& spec = fn.spec;
  const Image& img = fn.image;

  // Memory for the idle container is committed up front; a host that
  // cannot even hold the idle footprint refuses the launch.
  if (memory_.free() < img.base_memory) {
    cb(make_error<LaunchReport>(
        "engine.out_of_memory",
        "host cannot hold another idle container of " + spec.image.full()));
    return;
  }

  const Bytes missing = store_.missing_bytes(img);
  const bool create_net =
      (spec.network == spec::NetworkMode::kOverlay && !overlay_created_) ||
      (spec.network == spec::NetworkMode::kRouting && !routing_created_);
  const StartupBreakdown breakdown =
      cost_.startup(spec, img, missing, create_net);

  // Container-mode networking needs a proxy endpoint to join; create the
  // hidden bridge proxy on first use (its cost is inside the halved
  // container-mode launch numbers).
  EndpointId proxy = 0;
  if (spec.network == spec::NetworkMode::kContainer) {
    if (proxy_endpoint_ == 0) {
      auto proxy_ep = network_.provision(spec::NetworkMode::kBridge);
      if (!proxy_ep.ok()) {
        cb(Result<LaunchReport>(proxy_ep.error()));
        return;
      }
      proxy_endpoint_ = proxy_ep.value().id;
    }
    proxy = proxy_endpoint_;
  }

  auto endpoint = network_.provision(spec.network, proxy);
  if (!endpoint.ok()) {
    cb(Result<LaunchReport>(endpoint.error()));
    return;
  }
  if (spec.network == spec::NetworkMode::kOverlay) overlay_created_ = true;
  if (spec.network == spec::NetworkMode::kRouting) routing_created_ = true;

  const ContainerId id = next_id_++;
  Container c;
  c.id = id;
  c.fn = &fn;
  c.state = ContainerState::kProvisioning;
  c.endpoint = endpoint.value().id;
  c.volume = volumes_.create().id;
  c.created_at = sim_.now();
  c.last_used = sim_.now();
  c.idle_memory = img.base_memory;
  reserve_or_swap(c.idle_memory);
  add_container(std::move(c));
  ++launches_;

  HOTC_DEBUG("engine") << "launch " << spec.image.full() << " as #" << id
                       << " cold=" << format_duration(breakdown.total());

  const bool inject_failure =
      faults_.launch_failure_rate > 0.0 &&
      fault_rng_.chance(faults_.launch_failure_rate);
  sim_.after(breakdown.total(), [this, id, breakdown, inject_failure,
                                 cb = std::move(cb)]() {
    Entry* e = containers_.find(id);
    HOTC_ASSERT(e != nullptr);
    // Pull committed the layers to the local store even on failure.
    store_.commit(e->c.fn->image);
    if (inject_failure) {
      ++launch_failures_;
      Container& dead = e->c;
      set_state(dead, ContainerState::kStopping);
      set_state(dead, ContainerState::kRemoved);
      release_memory(dead.idle_memory);
      warn_if_failed(network_.release(dead.endpoint), "endpoint release");
      warn_if_failed(volumes_.destroy(dead.volume), "volume destroy");
      erase_container(id);
      cb(make_error<LaunchReport>("engine.launch_failed",
                                  "injected launch failure"));
      return;
    }
    set_state(e->c, ContainerState::kIdle);
    LaunchReport report;
    report.container = id;
    report.breakdown = breakdown;
    cb(report);
  });
}

void ContainerEngine::exec(ContainerId id, const AppModel& app,
                           ExecCallback cb) {
  run_exec(id, app, nullptr, std::move(cb));
}

void ContainerEngine::exec_as(ContainerId id, const AppModel& app,
                              const FunctionHandle& fn, ExecCallback cb) {
  run_exec(id, app, &fn, std::move(cb));
}

void ContainerEngine::run_exec(ContainerId id, const AppModel& app,
                               const FunctionHandle* request,
                               ExecCallback cb) {
  const std::uint32_t slot = containers_.slot_of(id);
  if (slot == IdSlab<Entry>::kNone) {
    cb(make_error<ExecReport>("engine.unknown_container",
                              "no container " + std::to_string(id)));
    return;
  }
  Entry& e = containers_[slot];
  Container& c = e.c;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<ExecReport>(
        "engine.not_available",
        "container " + std::to_string(id) + " is " + to_string(c.state)));
    return;
  }
  HOTC_ASSERT_MSG(!e.in_flight(), "one operation in flight per container");
  set_state(c, ContainerState::kBusy);
  c.last_used = sim_.now();
  ++c.exec_count;
  ++execs_;

  const bool warm = (c.warm_app == app.name);
  const Bytes extra_memory = app.memory;
  const bool swapped = reserve_or_swap(extra_memory);
  c.busy_memory = extra_memory;

  ExecReport& report = e.report;
  report = ExecReport{};
  report.container = id;
  report.app_was_warm = warm;
  report.swapped = swapped;
  // No request function means "as configured" (the plain exec path);
  // otherwise apply the re-applicable deltas before the handler starts,
  // and the container takes on the request's function.  Both share the
  // subset key, so they differ only in env, volumes, command and
  // entrypoint override; of those, the costs that later read the
  // container's spec (this delta, a conversion, a restore) read only env
  // and volumes.
  if (request != nullptr) {
    report.reconfigure = cost_.reconfigure_time(c.fn->spec, request->spec);
    c.fn = request;
  }
  // cgroup cpu quota: a limit below one full core stretches compute
  // proportionally (cfs throttling).
  const double cpu_limit = c.fn->spec.cpu_limit;
  const double quota =
      (cpu_limit > 0.0 && cpu_limit < 1.0) ? 1.0 / cpu_limit : 1.0;
  report.app_init = warm ? kZeroDuration
                         : scale(cost_.compute_time(app.app_init_seconds),
                                 quota);
  report.download = cost_.pull_time(app.download_bytes);
  // Swapping roughly halves effective compute speed in our model.
  const double slow = (swapped ? 2.0 : 1.0) * quota;
  report.compute = scale(cost_.compute_time(app.exec_seconds), slow);

  e.queued_at = sim_.now();
  e.writes = app.volume_writes;
  e.inject_crash = faults_.exec_crash_rate > 0.0 &&
                   fault_rng_.chance(faults_.exec_crash_rate);
  e.app_name = app.name;
  e.on_exec = std::move(cb);
  cpu_.acquire([this, slot]() { exec_granted(slot); });
}

void ContainerEngine::exec_granted(std::uint32_t slot) {
  Entry& e = containers_[slot];
  e.report.queueing = sim_.now() - e.queued_at;
  Duration busy = e.report.reconfigure + e.report.app_init +
                  e.report.download + e.report.compute;
  // An injected crash kills the process partway through execution.
  if (e.inject_crash) busy = scale(busy, 0.5);
  sim_.after(busy, [this, slot]() { exec_done(slot); });
}

void ContainerEngine::exec_done(std::uint32_t slot) {
  Entry& e = containers_[slot];
  Container& done = e.c;
  const ExecCallback cb = std::exchange(e.on_exec, nullptr);
  release_memory(done.busy_memory);
  done.busy_memory = 0;
  set_state(done, ContainerState::kIdle);
  done.last_used = sim_.now();
  cpu_.release();
  if (e.inject_crash) {
    ++exec_crashes_;
    // The container survives (the watchdog restarts the handler); the
    // warm-app state is gone with the dead process.
    done.warm_app.clear();
    cb(make_error<ExecReport>("engine.exec_crashed",
                              "injected function crash"));
    return;
  }
  done.warm_app = e.app_name;
  warn_if_failed(volumes_.write(done.volume, e.writes), "volume write");
  cb(e.report);
}

void ContainerEngine::clean(ContainerId id, DoneCallback cb) {
  const std::uint32_t slot = containers_.slot_of(id);
  if (slot == IdSlab<Entry>::kNone) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Entry& e = containers_[slot];
  Container& c = e.c;
  // Cleaning is only legal once execution has finished (the container is
  // back to Idle); cleaning a Busy container would race the in-flight exec.
  if (c.state != ContainerState::kIdle) {
    cb(make_error<bool>("engine.not_cleanable",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  HOTC_ASSERT_MSG(!e.in_flight(), "one operation in flight per container");
  set_state(c, ContainerState::kBusy);
  set_state(c, ContainerState::kCleaning);

  const Duration d =
      cost_.cleanup_time(volumes_.dirty_bytes(c.volume).value_or(0));
  if (clean_duration_ms_ != nullptr) {
    clean_duration_ms_->observe(to_milliseconds(d));
  }
  e.on_clean = std::move(cb);
  sim_.after(d, [this, slot]() { clean_done(slot); });
}

void ContainerEngine::clean_done(std::uint32_t slot) {
  Entry& e = containers_[slot];
  const DoneCallback cb = std::exchange(e.on_clean, nullptr);
  warn_if_failed(volumes_.wipe_and_remount(e.c.volume), "volume wipe");
  set_state(e.c, ContainerState::kIdle);
  cb(true);
}

void ContainerEngine::respecialize(ContainerId id,
                                   const FunctionHandle& target,
                                   RespecCallback cb) {
  const std::uint32_t slot = containers_.slot_of(id);
  if (slot == IdSlab<Entry>::kNone) {
    cb(make_error<RespecBreakdown>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Entry& e = containers_[slot];
  Container& c = e.c;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<RespecBreakdown>("engine.not_respecializable",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  if (c.fn->compat() != target.compat()) {
    cb(make_error<RespecBreakdown>(
        "engine.incompatible",
        "container " + std::to_string(id) + " (" + c.fn->spec.image.full() +
            ") is not class-compatible with " + target.spec.image.full()));
    return;
  }
  if (!target.resolved()) {
    cb(Result<RespecBreakdown>(*target.image_error));
    return;
  }

  e.respec = cost_.respecialize(c.fn->spec, target.spec, target.image,
                                store_.missing_bytes(target.image),
                                volumes_.dirty_bytes(c.volume).value_or(0));
  if (clean_duration_ms_ != nullptr) {
    clean_duration_ms_->observe(to_milliseconds(e.respec.clean));
  }

  // Conversion reuses the clean path's FSM walk: the container is out of
  // service while its volume is wiped and the delta applied.
  set_state(c, ContainerState::kBusy);
  set_state(c, ContainerState::kCleaning);

  e.respec_to = &target;
  e.on_respec = std::move(cb);
  sim_.after(e.respec.total(), [this, slot]() { respec_done(slot); });
}

void ContainerEngine::respec_done(std::uint32_t slot) {
  Entry& e = containers_[slot];
  Container& done = e.c;
  const FunctionHandle& fn = *e.respec_to;
  const RespecCallback cb = std::exchange(e.on_respec, nullptr);
  warn_if_failed(volumes_.wipe_and_remount(done.volume), "volume wipe");
  store_.commit(fn.image);  // the layer delta (if any) is now local
  if (fn.image.base_memory != done.idle_memory) {
    release_memory(done.idle_memory);
    reserve_or_swap(fn.image.base_memory);
    done.idle_memory = fn.image.base_memory;
  }
  done.fn = &fn;
  done.warm_app.clear();  // the donor's app init state went with the wipe
  set_state(done, ContainerState::kIdle);
  done.last_used = sim_.now();
  cb(e.respec);
}

void ContainerEngine::pause(ContainerId id, DoneCallback cb) {
  Entry* e = containers_.find(id);
  if (e == nullptr) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = e->c;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<bool>("engine.not_pausable",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kPaused);
  // Four fifths of the idle footprint pages out; the cgroup metadata
  // stays resident.
  c.paused_released = c.idle_memory * 4 / 5;
  release_memory(c.paused_released);
  sim_.after(cost_.pause_time(), [cb = std::move(cb)]() { cb(true); });
}

void ContainerEngine::resume(ContainerId id, DoneCallback cb) {
  Entry* e = containers_.find(id);
  if (e == nullptr) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = e->c;
  if (c.state != ContainerState::kPaused) {
    cb(make_error<bool>("engine.not_paused",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  const Duration d = cost_.resume_time(c.paused_released);
  reserve_or_swap(c.paused_released);
  c.paused_released = 0;
  sim_.after(d, [this, id, cb = std::move(cb)]() {
    Entry* inner = containers_.find(id);
    HOTC_ASSERT(inner != nullptr);
    set_state(inner->c, ContainerState::kIdle);
    cb(true);
  });
}

void ContainerEngine::demote(ContainerId id, DemoteCallback cb) {
  Entry* e = containers_.find(id);
  if (e == nullptr) {
    cb(make_error<DemoteReport>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Container& c = e->c;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<DemoteReport>("engine.not_checkpointable",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kCheckpointed);
  // The whole resident set pages out to the dump; only the id/endpoint/
  // volume metadata stays (~zero idle memory, the tier's whole point).
  c.checkpoint_released = c.idle_memory;
  release_memory(c.checkpoint_released);
  c.checkpoint_image = c.idle_memory + mib(2);  // page dump + metadata
  DemoteReport report;
  report.container = id;
  report.image_size = c.checkpoint_image;
  report.duration = cost_.checkpoint_time(c.idle_memory);
  sim_.after(report.duration,
             [report, cb = std::move(cb)]() { cb(report); });
}

void ContainerEngine::restore_container(ContainerId id, LaunchCallback cb) {
  Entry* e = containers_.find(id);
  if (e == nullptr) {
    cb(make_error<LaunchReport>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Container& c = e->c;
  if (c.state != ContainerState::kCheckpointed) {
    cb(make_error<LaunchReport>("engine.not_checkpointed",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  const Duration d = cost_.restore_time(c.checkpoint_image, c.fn->spec);
  reserve_or_swap(c.checkpoint_released);
  c.checkpoint_released = 0;
  StartupBreakdown breakdown;  // restore is a single "attach"-like phase
  breakdown.attach = d;
  sim_.after(d, [this, id, breakdown, cb = std::move(cb)]() {
    Entry* inner = containers_.find(id);
    HOTC_ASSERT(inner != nullptr);
    Container& done = inner->c;
    done.checkpoint_image = 0;
    set_state(done, ContainerState::kIdle);
    done.last_used = sim_.now();
    LaunchReport report;
    report.container = id;
    report.breakdown = breakdown;
    cb(report);
  });
}

void ContainerEngine::discard_checkpointed(ContainerId id, DoneCallback cb) {
  Entry* e = containers_.find(id);
  if (e == nullptr) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = e->c;
  if (c.state != ContainerState::kCheckpointed) {
    cb(make_error<bool>("engine.not_checkpointed",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kStopping);
  // No process to SIGTERM — only the dump file and metadata go away.
  sim_.after(cost_.remove_time(), [this, id, cb = std::move(cb)]() {
    Entry* inner = containers_.find(id);
    HOTC_ASSERT(inner != nullptr);
    Container& done = inner->c;
    release_memory(done.idle_memory + done.busy_memory -
                   done.paused_released - done.checkpoint_released);
    warn_if_failed(network_.release(done.endpoint), "endpoint release");
    warn_if_failed(volumes_.destroy(done.volume), "volume destroy");
    set_state(done, ContainerState::kRemoved);
    erase_container(id);
    cb(true);
  });
}

std::size_t ContainerEngine::checkpointed_count() const {
  return state_counts_[state_index(ContainerState::kCheckpointed)];
}

Bytes ContainerEngine::checkpointed_disk_used() const {
  Bytes total = 0;
  containers_.for_each([&total](const Entry& e) {
    if (e.c.state == ContainerState::kCheckpointed) {
      total += e.c.checkpoint_image;
    }
  });
  return total;
}

void ContainerEngine::stop_and_remove(ContainerId id, DoneCallback cb) {
  Entry* e = containers_.find(id);
  if (e == nullptr) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = e->c;
  if (c.state == ContainerState::kStopping ||
      c.state == ContainerState::kRemoved) {
    cb(make_error<bool>("engine.already_stopping",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  // An exec or wipe in flight would complete into a removed container.
  HOTC_ASSERT_MSG(!e->in_flight(),
                  "stopping a container with an operation in flight");
  set_state(c, ContainerState::kStopping);
  const Duration d = cost_.stop_time() + cost_.remove_time();
  sim_.after(d, [this, id, cb = std::move(cb)]() {
    Entry* inner = containers_.find(id);
    HOTC_ASSERT(inner != nullptr);
    Container& done = inner->c;
    release_memory(done.idle_memory + done.busy_memory -
                   done.paused_released - done.checkpoint_released);
    warn_if_failed(network_.release(done.endpoint), "endpoint release");
    warn_if_failed(volumes_.destroy(done.volume), "volume destroy");
    set_state(done, ContainerState::kRemoved);
    erase_container(id);
    cb(true);
  });
}

const Container* ContainerEngine::find(ContainerId id) const {
  const Entry* e = containers_.find(id);
  return e == nullptr ? nullptr : &e->c;
}

std::size_t ContainerEngine::live_count() const {
  // Checkpointed containers are on disk, not in RAM: they count against
  // the disk budget (checkpointed_count), never the live cap.
  return containers_.size() -
         state_counts_[state_index(ContainerState::kRemoved)] -
         state_counts_[state_index(ContainerState::kCheckpointed)];
}

std::size_t ContainerEngine::idle_count() const {
  return state_counts_[state_index(ContainerState::kIdle)];
}

std::size_t ContainerEngine::busy_count() const {
  return state_counts_[state_index(ContainerState::kBusy)] +
         state_counts_[state_index(ContainerState::kCleaning)];
}

double ContainerEngine::cpu_utilization() const {
  const double busy = static_cast<double>(cpu_.in_use()) /
                      static_cast<double>(cpu_.capacity());
  const double idle_overhead =
      kIdleCpuPerContainer * static_cast<double>(live_count());
  return std::min(1.0, busy + idle_overhead);
}

}  // namespace hotc::engine
