#include "runtime/real_hotc.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "engine/image.hpp"
#include "obs/prof.hpp"

namespace hotc::runtime {

namespace {

pool::PoolLimits warm_limits(const RealOptions& options) {
  pool::PoolLimits limits;
  // The pool asserts max_live > 0; max_warm == 0 is handled by never
  // returning runtimes to the pool at all.
  limits.max_live = std::max<std::size_t>(options.max_warm, 1);
  return limits;
}

}  // namespace

RealHotC::RealHotC(RealOptions options)
    : options_(options),
      cost_(options.host),
      warm_(warm_limits(options), options.pool_shards),
      snapshots_(options.tiering.store),
      plans_mu_(LockRank::kSnapshotStore, 0x10000, "runtime.plans"),
      pool_(options.worker_threads, [this](Request& r) { run(r); },
            "hotc.submit") {}

RealHotC::~RealHotC() { shutdown(); }

void RealHotC::shutdown() { pool_.shutdown(); }

const RealHotC::KeyPlan& RealHotC::plan_for(const spec::RunSpec& spec) {
  const spec::RuntimeKey key = spec::RuntimeKey::from_spec(spec);
  if (const KeyPlan* plan = plans_.load(key.id())) return *plan;

  // First submission of this key.  The canonical key covers every field
  // the cost model reads, so what is computed here holds for every later
  // spec with the same key.
  // hot-path-alloc: allow — once per distinct key
  auto fresh = std::make_unique<KeyPlan>();
  fresh->key = key;
  fresh->spec = spec;
  const engine::Image image = engine::image_for_name(spec.image);
  fresh->cold = cost_.startup(spec, image, /*bytes_to_pull=*/0).total();
  // Mirror the engine's checkpoint model: the image is the idle resident
  // set plus ~2 MiB of dump metadata.
  fresh->image_bytes = image.base_memory + mib(2);
  fresh->restore = cost_.restore_time(fresh->image_bytes, spec);
  fresh->tenant = snapshot::tenant_of(spec);
  const KeyPlan* plan = nullptr;
  {
    const RankedGuard lock(plans_mu_);
    plan = plans_.load(key.id());
    if (plan != nullptr) return *plan;  // a racing submitter published first
    plan = fresh.get();
    plan_storage_.push_back(std::move(fresh));
    plans_.store(key.id(), plan);
  }
  if (options_.enable_sharing) donors_.record(plan->key, plan->spec);
  return *plan;
}

void RealHotC::trim_warm() {
  // Returns race with other workers' returns, so a few attempts may lose
  // a select/remove race; the loser re-selects.  Bounded so a pathological
  // schedule cannot spin forever — the next return trims again anyway.
  for (int attempts = 0; attempts < 64; ++attempts) {
    if (warm_.total_available() <= options_.max_warm) return;
    const auto victim =
        warm_.select_victim(pool::EvictionPolicy::kOldestFirst);
    if (!victim.has_value()) return;
    // Tiering: a victim worth keeping on disk is demoted, not dropped.
    if (options_.tiering.enabled && demote_victim(*victim)) continue;
    if (warm_.remove(victim->key, victim->id)) warm_.count_eviction();
  }
}

bool RealHotC::demote_victim(const pool::PoolEntry& victim) {
  // Every pooled key was submitted, so its plan exists.
  const KeyPlan* plan = plans_.load(victim.key.id());
  const double cold_s = to_seconds(plan->cold);
  const double restore_s = to_seconds(plan->restore);
  if (!snapshot::gate_passes(restore_s, cold_s, options_.tiering.alpha)) {
    return false;
  }
  if (plan->image_bytes > snapshots_.capacity_bytes()) return false;
  // The ledger flow: remove_for_checkpoint counts the demotion as a
  // checkpointed removal (checkpointed ⊆ removed).  A racing worker may
  // have claimed the victim already — the caller just re-selects.
  if (!warm_.remove_for_checkpoint(victim.key, victim.id)) return false;
  const obs::StageScope stage(obs::Stage::kCheckpoint);
  snapshot::SnapshotMeta meta;
  meta.key = victim.key.id();
  meta.tenant = plan->tenant;
  meta.container = victim.id;
  meta.bytes = plan->image_bytes;
  meta.created_at = wall_now();
  meta.last_access = meta.created_at;
  meta.restore_estimate_s = restore_s;
  meta.cold_estimate_s = cold_s;
  // Store-side evictions are purely modelled here (no engine images to
  // discard); a rejected admit still evicted the victim from the warm
  // set, which is what trim_warm needed.
  snapshots_.admit(meta, wall_now());
  return true;
}

std::future<RealOutcome> RealHotC::submit(const spec::RunSpec& spec,
                                          const engine::AppModel& app,
                                          Handler handler,
                                          // hot-path-alloc: allow — caller
                                          std::string argument) {  // hands
                                          // off payload ownership by value.
  Request request{&plan_for(spec), spec::fnv1a(app.name),
                  app.app_init_seconds, std::move(handler),
                  std::move(argument), {}};
  std::future<RealOutcome> future = request.promise.get_future();
  if (!pool_.post(request)) {
    request.promise.set_value(RealOutcome{});  // pool already shut down
  }
  return future;
}

void RealHotC::run(Request& request) {
  // Whatever throws — a handler, above all — fails this request's future
  // only, and the worker lives on.  The unwind skips serve()'s readmit, so
  // the runtime the request held is dropped, not re-pooled; its lease (or
  // consumed snapshot) was already counted, so both ledgers still balance.
  try {
    request.promise.set_value(serve(request));
  } catch (...) {
    request.promise.set_exception(std::current_exception());
  }
}

RealOutcome RealHotC::serve(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  const KeyPlan& plan = *request.plan;

  // Algorithm 1, wall-clock edition: claim a warm runtime from the
  // striped pool (one shard lock), pay delays outside any lock.
  std::optional<pool::PoolEntry> warm;
  {
    const obs::StageScope stage(obs::Stage::kPoolLookup);
    warm = warm_.acquire(plan.key, wall_now());
  }
  const bool reused = warm.has_value();
  const bool app_warm = reused && warm->app_tag == request.app_tag;

  // Miss: before paying the cold start, try converting an idle
  // compatible sibling (donor registry + lease-for-donation seam).
  bool respecialized = false;
  Duration respec_cost = kZeroDuration;
  if (!reused && options_.enable_sharing) {
    const obs::StageScope stage(obs::Stage::kDonorLookup);
    ++donor_lookups_;
    const auto cand = donors_.find_donor(plan.spec, plan.key, warm_);
    if (cand.has_value()) {
      // Wall-clock conversion = volume wipe/remount + env/exec delta
      // (image layers never differ inside a compatibility class' tag
      // delta here — the cost model charges them via reconfigure).
      const Duration respec = cost_.cleanup_time(/*dirty_bytes=*/0) +
                              cost_.reconfigure_time(cand->spec, plan.spec);
      const bool viable =
          plan.cold > kZeroDuration &&
          static_cast<double>(respec.count()) <=
              options_.share_max_cost_ratio *
                  static_cast<double>(plan.cold.count());
      if (viable) {
        auto donor = warm_.acquire_for_donation(cand->key, wall_now());
        if (donor.has_value()) {
          respecialized = true;
          respec_cost = respec;
          warm = donor;
          warm->key = plan.key;        // re-keyed to the requested config
          warm->respecialized = true;  // counted once at return
          warm->app_tag = 0;           // donor's app state is gone
        }
      }
    }
  }

  // Still a miss: revive a checkpointed runtime of this exact key from
  // the snapshot tier (consuming take), paying the restore cost — well
  // under the cold start whenever the demotion gate admitted it.
  std::optional<snapshot::SnapshotMeta> snap;
  if (!reused && !respecialized && options_.tiering.enabled) {
    snap = snapshots_.take(plan.key.id(), wall_now());
  }
  const bool restored = snap.has_value();

  if (reused) {
    ++reuses_;
  } else if (respecialized) {
    ++donor_hits_;
    const obs::StageScope stage(obs::Stage::kRespecialize);
    std::this_thread::sleep_for(scale(respec_cost, options_.cold_start_scale));
  } else if (restored) {
    const obs::StageScope stage(obs::Stage::kRestore);
    std::this_thread::sleep_for(
        scale(plan.restore, options_.cold_start_scale));
  } else {
    ++cold_starts_;
    const obs::StageScope stage(obs::Stage::kColdStart);
    std::this_thread::sleep_for(scale(plan.cold, options_.cold_start_scale));
  }
  if (!app_warm) {
    std::this_thread::sleep_for(
        scale(cost_.compute_time(request.app_init_seconds),
              options_.cold_start_scale));
  }

  RealOutcome outcome;
  outcome.reused = reused;
  outcome.respecialized = respecialized;
  outcome.restored = restored;
  outcome.app_was_warm = app_warm;
  outcome.modeled_cold = plan.cold;
  {
    const obs::StageScope stage(obs::Stage::kExec);
    outcome.payload = request.handler(request.argument);
  }

  // Return the runtime to the warm set (cleanup is instantaneous here —
  // the volume machinery lives in the simulator substrate), then trim
  // the oldest runtimes back under max_warm.
  if (options_.max_warm > 0) {
    const obs::StageScope stage(obs::Stage::kReadmit);
    pool::PoolEntry entry;
    if (reused || respecialized) {
      entry = *warm;  // keeps created_at and reuse_count
    } else if (restored) {
      entry.id = snap->container;  // the checkpointed runtime lives on
      entry.key = plan.key;
      entry.created_at = wall_now();
      entry.restored = true;  // counted once at re-admission
    } else {
      entry.id = next_runtime_id_.fetch_add(1, std::memory_order_relaxed);
      entry.key = plan.key;
      entry.created_at = wall_now();
    }
    entry.app_tag = request.app_tag;  // this app's init state is resident
    warm_.add_available(entry, wall_now());
    trim_warm();
  }

  outcome.wall_time = std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now() - start);
  return outcome;
}

}  // namespace hotc::runtime
