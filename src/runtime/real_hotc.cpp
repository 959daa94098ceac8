#include "runtime/real_hotc.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "core/assert.hpp"
#include "obs/prof.hpp"
#include "share/donor_choice.hpp"

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
      warm_(warm_limits(options), 0),
      snapshots_(options.tiering.store),
      pool_(options.worker_threads, [this](Request& r) { run(r); },
            "hotc.submit") {}

RealHotC::~RealHotC() { shutdown(); }

void RealHotC::shutdown() { pool_.shutdown(); }

const engine::FunctionHandle& RealHotC::prepare(const spec::RunSpec& spec) {
  bool published = false;
  const engine::FunctionHandle& fn = functions_.prepare(spec, &published);
  // Only the caller that published the handle files it, once per key.
  if (published && options_.enable_sharing) donors_.record(fn.key, fn);
  return fn;
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
  // Every pooled key was submitted, so its handle exists.
  const engine::FunctionHandle* fn = functions_.find(victim.key.id());
  auto meta = snapshot::plan_demotion(options_.tiering, victim.key.id(),
                                      fn->tenant, victim.id, fn->image_bytes,
                                      fn->restore, fn->cold);
  if (!meta.has_value()) return false;
  // The ledger flow: remove_for_checkpoint counts the demotion as a
  // checkpointed removal (checkpointed ⊆ removed).  A racing worker may
  // have claimed the victim already — the caller just re-selects.
  if (!warm_.remove_for_checkpoint(victim.key, victim.id)) return false;
  const obs::StageScope stage(obs::Stage::kCheckpoint);
  meta->created_at = wall_now();
  meta->last_access = meta->created_at;
  // Store-side evictions are purely modelled here (no engine images to
  // discard); a rejected admit still evicted the victim from the warm
  // set, which is what trim_warm needed.
  snapshots_.admit(*meta, wall_now());
  return true;
}

// hotc-analyze: hot-path-root
std::future<RealOutcome> RealHotC::submit(const engine::FunctionHandle& fn,
                                          const engine::AppModel& app,
                                          Handler handler,
                                          std::string argument) {
  // Trim and sharing look a pooled key's handle up in this table.
  HOTC_ASSERT_MSG(functions_.find(fn.key.id()) == &fn,
                  "submit() takes a handle this instance prepared");
  Request request{&fn, spec::fnv1a(app.name),
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

// hotc-analyze: hot-path-root
RealOutcome RealHotC::serve(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  const engine::FunctionHandle& fn = *request.fn;

  // Algorithm 1, wall-clock edition: claim a warm runtime from the
  // striped pool (one shard lock), pay delays outside any lock.
  std::optional<pool::PoolEntry> warm;
  {
    const obs::StageScope stage(obs::Stage::kPoolLookup);
    warm = warm_.acquire(fn.key, wall_now());
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
    // Priced like the cold estimate: every image counts as fully cached.
    const auto choice = share::choose_donor(
        donors_, warm_, cost_, fn, fn.key, fn.cold,
        /*missing_layer_bytes=*/0, options_.share_max_cost_ratio);
    if (choice.has_value() && choice->viable) {
      auto donor = warm_.acquire_for_donation(choice->donor.key, wall_now());
      if (donor.has_value()) {
        respecialized = true;
        respec_cost = choice->respec;
        warm = donor;
        warm->key = fn.key;          // re-keyed to the requested config
        warm->respecialized = true;  // counted once at return
        warm->app_tag = 0;           // donor's app state is gone
      }
    }
  }

  // Still a miss: revive a checkpointed runtime of this exact key from
  // the snapshot tier (consuming take), paying the restore cost — well
  // under the cold start whenever the demotion gate admitted it.
  std::optional<snapshot::SnapshotMeta> snap;
  if (!reused && !respecialized && options_.tiering.enabled) {
    snap = snapshots_.take(fn.key.id(), wall_now());
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
        scale(fn.restore, options_.cold_start_scale));
  } else {
    ++cold_starts_;
    const obs::StageScope stage(obs::Stage::kColdStart);
    std::this_thread::sleep_for(scale(fn.cold, options_.cold_start_scale));
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
  outcome.modeled_cold = fn.cold;
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
    } else {
      // A restored runtime lives on under its checkpointed id.
      entry.id = restored ? snap->container
                          : next_runtime_id_.fetch_add(
                                1, std::memory_order_relaxed);
      entry.key = fn.key;
      entry.created_at = wall_now();
      entry.restored = restored;  // counted once at re-admission
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
