// Real-execution HotC: the middleware running on wall-clock time.
//
// This is the embeddable form of the library: user code submits a runtime
// configuration plus a C++ callable ("the function"), and RealHotC applies
// Algorithm 1 — reuse a warm runtime of the same canonical key when one is
// available, otherwise pay a cold start (modelled as a real delay taken
// from the same CostModel the simulator uses, scaled by
// `cold_start_scale` so demos run fast).  Warm runtimes carry per-app
// state (the "loaded model"), so a warm hit also skips the app-init delay.
//
// Thread-safe: submissions may come from any thread; execution happens on
// the worker pool, one request lane per worker.  The warm set is the same
// lock-striped ShardedRuntimePool the rest of the library uses — workers
// touching distinct runtime keys never contend on a shared lock (the seed
// version funnelled every lookup through one global mutex + std::map).
//
// Everything the request path needs that depends on the runtime key alone
// — the modelled cold start, the tiering economics, a stable copy of the
// spec — is computed once, on the key's first submission, into an
// immutable per-key plan that later requests read lock-free.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/chunked_atomic.hpp"
#include "core/ranked_mutex.hpp"
#include "core/time.hpp"
#include "engine/app.hpp"
#include "engine/cost_model.hpp"
#include "pool/sharded_pool.hpp"
#include "runtime/thread_pool.hpp"
#include "share/donor_registry.hpp"
#include "snapshot/checkpoint_store.hpp"
#include "snapshot/tiering.hpp"
#include "spec/runspec.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::runtime {

struct RealOptions {
  std::size_t worker_threads = 4;
  engine::HostProfile host = engine::HostProfile::server();
  /// Multiplier applied to modelled cold-start / init delays before
  /// sleeping them for real.  0.01 turns a 700 ms cold start into 7 ms.
  double cold_start_scale = 0.01;
  /// Maximum warm runtimes kept alive across all keys (0 = never pool).
  std::size_t max_warm = 64;
  /// Lock stripes for the warm set; 0 = hardware_concurrency().
  std::size_t pool_shards = 0;
  /// Cross-key sharing: on a miss, convert an idle compatible sibling
  /// (same image / isolation shape, different env) instead of paying the
  /// full cold start.  Off by default — exact-match semantics unchanged.
  bool enable_sharing = false;
  /// A donor is viable when modelled conversion cost <= ratio * cold cost.
  double share_max_cost_ratio = 0.8;
  /// Tiered warm state (DESIGN.md §16): trim victims that pass the
  /// economic gate are demoted into a modelled checkpoint store instead of
  /// being discarded outright, and the miss path tries a restore —
  /// pool-hit -> donor -> checkpoint-restore -> cold — before paying the
  /// full cold start.  Off by default — eviction semantics unchanged.
  snapshot::TieringOptions tiering;
};

struct RealOutcome {
  bool reused = false;
  /// Served by converting a compatible sibling runtime (not an exact
  /// reuse, not a cold start — the conversion cost was paid instead).
  bool respecialized = false;
  /// Revived from the snapshot tier: a restore was paid (≪ cold) instead
  /// of a full cold start.
  bool restored = false;
  bool app_was_warm = false;
  Duration wall_time = kZeroDuration;   // measured, not modelled
  Duration modeled_cold = kZeroDuration;  // the cold cost that was (not) paid
  std::string payload;                  // what the function returned
};

class RealHotC {
 public:
  explicit RealHotC(RealOptions options = {});
  ~RealHotC();

  RealHotC(const RealHotC&) = delete;
  RealHotC& operator=(const RealHotC&) = delete;

  /// The function body: receives the request argument, returns the payload.
  using Handler = std::function<std::string(const std::string&)>;

  /// Submit a request.  The future resolves when the function has run; if
  /// the handler throws, the future rethrows and the runtime it ran in is
  /// discarded, not re-pooled.  After shutdown() the future resolves at
  /// once to an empty RealOutcome.
  std::future<RealOutcome> submit(const spec::RunSpec& spec,
                                  const engine::AppModel& app,
                                  Handler handler, std::string argument);

  /// Drain outstanding work and stop the workers.
  void shutdown();

  /// What a runtime key costs, computed from its first submission's spec.
  /// Every field is a pure function of the canonical key: specs that
  /// differ only outside it (the command) share one plan.
  struct KeyPlan {
    spec::RuntimeKey key;
    spec::RunSpec spec;              // the first submission's, kept stable
    Duration cold = kZeroDuration;   // modelled full cold start
    // Tiering economics: trim victims arrive as bare pool entries.
    Bytes image_bytes = 0;           // modelled checkpoint image size
    Duration restore = kZeroDuration;  // restoring that image
    std::uint64_t tenant = 0;
  };
  /// The plan of a key submitted at least once, else nullptr.
  [[nodiscard]] const KeyPlan* plan(spec::KeyId key) const {
    return plans_.load(key);
  }

  [[nodiscard]] std::uint64_t cold_starts() const { return cold_starts_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  [[nodiscard]] std::uint64_t donor_lookups() const { return donor_lookups_; }
  [[nodiscard]] std::uint64_t donor_hits() const { return donor_hits_; }
  /// Snapshot-tier traffic (zero when tiering is disabled).
  [[nodiscard]] std::uint64_t demotes() const { return snapshots_.demotes(); }
  [[nodiscard]] std::uint64_t restores() const {
    return snapshots_.restores();
  }
  /// The modelled checkpoint store behind the tiering path.
  [[nodiscard]] const snapshot::CheckpointStore& snapshot_store() const {
    return snapshots_;
  }
  [[nodiscard]] std::size_t warm_count() const {
    return warm_.total_available();
  }
  /// The warm set behind the PoolView seam (hit rate, per-key counts...).
  [[nodiscard]] const pool::PoolView& warm_pool() const { return warm_; }

 private:
  /// Wall-clock now as the library-wide TimePoint (offset from epoch).
  static TimePoint wall_now() {
    return std::chrono::duration_cast<Duration>(
        std::chrono::steady_clock::now().time_since_epoch());
  }

  /// One submission, carried by value through a worker lane.
  struct Request {
    const KeyPlan* plan = nullptr;
    std::uint64_t app_tag = 0;  // which app's init state a runtime holds
    double app_init_seconds = 0.0;
    Handler handler;
    std::string argument;
    std::promise<RealOutcome> promise;
  };

  /// The key's plan, built and published on its first submission.
  const KeyPlan& plan_for(const spec::RunSpec& spec);

  /// The worker lanes' runner: serve the request and resolve its future
  /// with the outcome, or with whatever serve() threw.
  void run(Request& request);
  /// Algorithm 1 on a worker thread: pool lookup, miss path, handler,
  /// readmit and trim.
  RealOutcome serve(const Request& request);

  /// Oldest-first trim back to max_warm after a return (paper eviction).
  /// With tiering on, victims that pass the economic gate are demoted
  /// into the snapshot store instead of being dropped.
  void trim_warm();

  /// Demote one trim victim into the snapshot store.  Returns false when
  /// the economic gate fails (caller falls back to a plain eviction) or
  /// the victim was claimed by a racing worker.
  bool demote_victim(const pool::PoolEntry& victim);

  RealOptions options_;
  engine::CostModel cost_;
  pool::ShardedRuntimePool warm_;
  /// Compatibility index over keys this instance has seen.  Writes to the
  /// warm set itself still go through the pool's lease/return seam only.
  share::DonorRegistry donors_;
  /// The disk-resident middle tier (always constructed; empty and idle
  /// unless options_.tiering.enabled routes traffic through it).
  snapshot::CheckpointStore snapshots_;
  /// KeyId -> plan, published once per key under plans_mu_ and read
  /// lock-free.  Band 55 with a sequence past any store stripe; held only
  /// to publish a built plan, never across a pool or store call.
  RankedMutex plans_mu_;
  ChunkedAtomic<const KeyPlan*> plans_ HOTC_WRITE_GUARDED_BY(plans_mu_);
  std::vector<std::unique_ptr<KeyPlan>> plan_storage_
      HOTC_GUARDED_BY(plans_mu_);
  std::atomic<engine::ContainerId> next_runtime_id_{1};
  std::atomic<std::uint64_t> cold_starts_{0};
  std::atomic<std::uint64_t> reuses_{0};
  std::atomic<std::uint64_t> donor_lookups_{0};
  std::atomic<std::uint64_t> donor_hits_{0};
  /// Declared last: its workers run requests against everything above.
  ThreadPool<Request> pool_;
};

}  // namespace hotc::runtime
