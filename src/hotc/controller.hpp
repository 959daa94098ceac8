// HotC controller: the middleware of Fig. 6.
//
// Request path (Algorithm 1): parse/canonicalise the configuration into a
// runtime key, try to reuse an Existing-Available container of that type,
// otherwise cold-start one.  After execution, Algorithm 2 cleans the used
// container (volume wipe + remount) and returns it to the pool.
//
// Adaptive management (Algorithm 3 / Section IV-C): per runtime key, the
// controller samples demand each control interval, feeds it to a predictor
// (default: the ES+Markov hybrid) and resizes that key's pooled containers
// toward the forecast — pre-warming ahead of predicted demand and retiring
// surplus.  Global limits (500 live containers, 80 % memory) are enforced
// with oldest-first eviction.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/result.hpp"
#include "core/slab.hpp"
#include "engine/engine.hpp"
#include "engine/function_table.hpp"
#include "obs/blackbox.hpp"
#include "obs/drift.hpp"
#include "obs/journal.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "pool/eviction.hpp"
#include "pool/pool.hpp"
#include "predict/hybrid.hpp"
#include "predict/predictor.hpp"
#include "share/donor_registry.hpp"
#include "snapshot/checkpoint_store.hpp"
#include "snapshot/tiering.hpp"
#include "spec/compat.hpp"
#include "spec/runtime_key.hpp"

namespace hotc {

/// Factory so every runtime key gets its own predictor instance.
using PredictorFactory = std::function<predict::PredictorPtr()>;

struct ControllerOptions {
  pool::PoolLimits limits;
  pool::EvictionPolicy eviction = pool::EvictionPolicy::kOldestFirst;
  /// Control-loop period for Algorithm 3.
  Duration adaptive_interval = seconds(30);
  /// Pre-warm containers toward the forecast (off = pure reactive reuse).
  bool enable_prewarm = true;
  /// Retire pooled containers above the forecast (off = grow-only pool).
  bool enable_retire = true;
  /// Keep-alive cap: even without pressure, an idle container older than
  /// this is retired on the next tick (0 = no cap; the adaptive loop is
  /// the paper's replacement for fixed keep-alive, so default off).
  Duration idle_cap = kZeroDuration;
  /// Freeze pooled containers idle longer than this (0 = off): trades
  /// most of their memory footprint for a page-fault resume latency on
  /// the next hit.  An extension over the paper (Docker pause).
  Duration pause_idle_after = kZeroDuration;
  /// Tiered warm state (DESIGN.md §16), CRIU-style checkpoint/restore (the
  /// Replayable-Execution [34] idea): retire/evict victims that pass the
  /// economic gate are demoted *in place* into a capacity-bounded
  /// checkpoint store instead of being destroyed, and the miss path tries
  /// a consuming restore before paying a full cold start.
  snapshot::TieringOptions tiering;
  /// Use the subset key (paper §VII extension): env/volumes/command are
  /// re-applied rather than part of the key.
  bool use_subset_key = false;
  /// Cross-key container sharing (src/share/): on an exact-match miss, try
  /// to lease an idle *sibling* container — same compatibility class, see
  /// spec/compat.hpp — and re-specialize it instead of cold-starting.  The
  /// exact-match hit path is untouched.
  bool enable_sharing = false;
  /// Donor viability gate: a conversion must cost at most this fraction of
  /// the request's estimated cold start, or the donor is rejected.
  double share_max_cost_ratio = 0.8;
  PredictorFactory predictor_factory = [] {
    return std::make_unique<predict::HybridPredictor>();
  };
  std::uint64_t rng_seed = 1234;
  /// Observability hooks, both optional.  The tracer receives lifecycle
  /// spans (parse, pool lookup, cold start vs reuse, exec, clean,
  /// readmit...); the registry collects the controller's ledgers
  /// (ControllerStats, per-key counts, pool, checkpoint store and donor
  /// index) at each snapshot and receives its histograms and prediction
  /// gauges.  Both must outlive the controller.
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  /// Diagnosis layer (all optional, must outlive the controller).  The
  /// journal receives one DecisionRecord per key per adaptive tick plus a
  /// per-tick summary; the SLO engine is evaluated once per tick after
  /// the decisions land, over one snapshot of `registry` (which the SLO
  /// engine and the time-series store must both read).
  obs::DecisionJournal* journal = nullptr;
  obs::SloEngine* slo = nullptr;
  /// Retained metric history (obs/tsdb.hpp): sampled once per adaptive
  /// tick from the same consistent Registry cut the SLO engine
  /// evaluates.  Its anomaly detector feeds the SLO alert ring.
  obs::TimeSeriesStore* tsdb = nullptr;
  /// Crash dumper (obs/blackbox.hpp): the tick tail refreshes its tick
  /// marker and SLO mirror so a post-mortem sees the state at death.
  obs::BlackBox* blackbox = nullptr;
  /// Forecast-drift feedback (obs/drift.hpp): per-key Page-Hinkley over
  /// |forecast - demand|; on sustained drift the key's predictor is
  /// restarted and its donation nomination muted for the cooldown.  An
  /// intervention, so opt-in: off keeps the control loop's numbers
  /// bit-identical to previous releases.
  bool enable_drift_detection = false;
  obs::DriftOptions drift;
};

/// Outcome of one request: HotC's, and every faas::Backend's answer to
/// the gateway.
struct RequestOutcome {
  bool reused = false;        // served from the pool (warm)
  bool prewarmed = false;     // the container came from a predictive warm-up
  bool resumed = false;       // the pooled container was frozen; thaw paid
  bool restored = false;      // recreated from a checkpoint, not cold-booted
  bool respecialized = false;  // served by a converted cross-key donor
  Duration startup = kZeroDuration;  // cold-start cost paid (0 when reused;
                                     // the conversion cost on donor hits)
  Duration exec_total = kZeroDuration;  // queueing+init+download+compute
  Duration total = kZeroDuration;       // request latency end to end
  engine::ContainerId container = 0;

  /// Paid a full provisioning (a launch or a checkpoint restore).  A
  /// donor conversion is cheaper than that and not a warm exact-match hit
  /// either, so it counts as neither.
  [[nodiscard]] bool cold() const { return !reused && !respecialized; }
};

struct ControllerStats {
  std::uint64_t requests = 0;
  /// True cold starts only: a full launch (or checkpoint restore) was paid.
  /// Donor conversions are *not* cold starts — they are attributed to
  /// donor_hits so the exported split stays honest.
  std::uint64_t cold_starts = 0;
  std::uint64_t reuses = 0;
  std::uint64_t donor_lookups = 0;    // miss-path cross-key searches
  std::uint64_t donor_hits = 0;       // requests served by a converted donor
  std::uint64_t respec_rejected = 0;  // donors rejected by the cost gate
  /// Conversion time paid across donor hits / startup time paid across
  /// true cold starts (drives the respecialize-vs-cold latency ratio).
  double donor_respec_seconds = 0.0;
  double cold_start_seconds = 0.0;
  std::uint64_t restores = 0;     // cold misses served from checkpoints
  std::uint64_t checkpoints = 0;  // demotion dumps taken instead of stops
  std::uint64_t prewarm_launches = 0;
  std::uint64_t retired = 0;      // containers stopped by the controller
  std::uint64_t evicted = 0;      // stopped under capacity/memory pressure
  /// Predictor restarts forced by the forecast-drift detector.
  std::uint64_t drift_restarts = 0;
  /// Accumulated container-seconds of idle pool residency (cost proxy).
  double idle_container_seconds = 0.0;
};

class HotCController {
 public:
  HotCController(engine::ContainerEngine& engine, ControllerOptions options);

  HotCController(const HotCController&) = delete;
  HotCController& operator=(const HotCController&) = delete;

  using Callback = std::function<void(Result<RequestOutcome>)>;

  /// Algorithm 1 + 2: serve one request for a function of this
  /// controller's engine (engine().prepare()).
  void handle(const engine::FunctionHandle& fn, const engine::AppModel& app,
              Callback cb) {
    handle_traced(fn, app, /*trace_id=*/0, std::move(cb));
  }

  /// Same, attributing every span to the caller's trace id (the gateway
  /// passes its request id so one trace covers the whole request path).
  /// A zero trace id draws a fresh one from the tracer when present.
  void handle_traced(const engine::FunctionHandle& fn,
                     const engine::AppModel& app, std::uint64_t trace_id,
                     Callback cb);

  /// RunSpec form: prepare the spec's handle in the engine, then serve it.
  void handle(const spec::RunSpec& spec, const engine::AppModel& app,
              Callback cb) {
    handle(engine_.prepare(spec), app, std::move(cb));
  }

  /// Start the Algorithm 3 control loop (call once, before running the
  /// simulation).  `until` bounds the loop; pass a horizon past your
  /// workload end.
  void start_adaptive_loop(TimePoint until);

  /// Run one control-loop iteration immediately (exposed for tests).
  void adaptive_tick();

  // --- introspection ----------------------------------------------------
  [[nodiscard]] const pool::RuntimePool& runtime_pool() const { return pool_; }
  /// Implementation-agnostic view of the pool — the seam observers
  /// (cluster directory, benches) should prefer, so the sim and real
  /// paths report through one interface.
  [[nodiscard]] const pool::PoolView& pool_view() const { return pool_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  /// Adaptive ticks run so far (the journal's tick ordinal domain).
  [[nodiscard]] std::uint64_t adaptive_ticks() const { return tick_; }
  [[nodiscard]] const ControllerOptions& options() const { return options_; }
  [[nodiscard]] engine::ContainerEngine& engine() { return engine_; }
  /// Null unless options.enable_sharing.
  [[nodiscard]] const share::DonorRegistry* donor_registry() const {
    return donors_.get();
  }
  /// Null unless options.tiering.enabled.
  [[nodiscard]] const snapshot::CheckpointStore* checkpoint_store() const {
    return store_.get();
  }

  /// Current prediction for a key (ceil'd target pool size).
  [[nodiscard]] std::optional<double> current_forecast(
      const spec::RuntimeKey& key) const;

  /// Invoked whenever a key's available count changes (container pooled,
  /// reused, retired or evicted).  Used by the cluster layer to keep the
  /// distributed warm directory fresh.
  void set_pool_listener(std::function<void(const spec::RuntimeKey&)> fn) {
    pool_listener_ = std::move(fn);
  }

 private:
  struct KeyState {
    spec::RuntimeKey key;  // this controller's key (subset or full)
    /// The first function seen under the key: it recreates the runtime
    /// and carries the key's image, class and tenant.
    const engine::FunctionHandle* fn = nullptr;
    predict::PredictorPtr predictor;
    std::size_t busy_now = 0;       // currently executing containers
    std::size_t interval_peak = 0;  // max busy within the current interval
    std::uint64_t interval_requests = 0;
    /// All-time requests and true cold starts (hotc_key_requests_total /
    /// hotc_key_cold_total, the cold-start-ratio SLO's series).
    std::uint64_t requests = 0;
    std::uint64_t cold_starts = 0;
    /// Previous tick's forecast, so the next tick can score it against the
    /// demand it was predicting (negative = no forecast made yet).
    double last_forecast = -1.0;
    /// Per-key |forecast - demand| gauge, registered lazily on the first
    /// scored tick (null when no registry is attached).
    obs::Gauge* error_gauge = nullptr;
    /// Forecast-drift detector over the same error stream (only consulted
    /// when options.enable_drift_detection).
    obs::PageHinkley drift;
    /// Donation nomination stays muted through this tick ordinal after a
    /// drift restart (0 = not muted).
    std::uint64_t donation_muted_until = 0;
  };

  /// The key's state, created (and filed in the tick order and the donor
  /// registry) on its first request.
  KeyState& key_state(const spec::RuntimeKey& key,
                      const engine::FunctionHandle& fn);
  /// One fewer busy container of the key (a request ended or failed).
  void end_busy(const spec::RuntimeKey& key);

  /// Enforce max_live / memory threshold by stopping idle victims.
  void enforce_pressure();

  /// Take an idle pooled container out of the pool (bookkeeping), then
  /// demote it into the checkpoint store when the demotion plan admits it,
  /// else stop it.
  void retire_entry(const pool::PoolEntry& entry, bool pressure);

  /// Tiering: snapshot::plan_demotion over this controller's estimates for
  /// the entry, or nullopt when it should be stopped instead.
  std::optional<snapshot::SnapshotMeta> demotion_plan(
      const pool::PoolEntry& entry) const;

  /// Dump an entry already removed for checkpointing and admit `meta`.
  void demote(const pool::PoolEntry& entry, snapshot::SnapshotMeta meta);

  /// Launch a pre-warmed container for a key (Algorithm 3 scale-up).
  void prewarm(const KeyState& state);

  /// One request from its arrival to its runtime's readmit, and its only
  /// state meanwhile: every continuation of the request path captures
  /// {this, slot} and nothing else.
  struct InFlight {
    const engine::FunctionHandle* fn = nullptr;
    engine::AppModel app;
    spec::RuntimeKey key;  // this controller's key (subset or full)
    TimePoint arrival = kZeroDuration;
    /// The start of the step in flight (conversion, restore, launch, thaw,
    /// exec or clean), which its span reports.
    TimePoint started = kZeroDuration;
    std::uint64_t trace_id = 0;
    /// The runtime serving the request; its prewarmed, restored and
    /// respecialized marks say how it was obtained.
    pool::PoolEntry entry;
    RequestOutcome outcome;  // filled in as the path goes
    Callback cb;             // empty once the client is answered
  };

  /// Cross-key sharing on the miss path: choose an idle sibling donor
  /// (share::choose_donor), lease it and convert it.  Returns false, with
  /// nothing started, when no donor was leased; the caller cold-starts.
  bool try_donor(std::uint32_t slot);
  /// The conversion is over: serve on the converted donor, or drop it and
  /// cold-start.
  void converted(std::uint32_t slot, Result<engine::RespecBreakdown> r);

  /// The cold tail of the miss path: enforce pressure, then restore from
  /// the snapshot tier when possible, else launch.  Counts one true cold
  /// start.
  void provision_cold(std::uint32_t slot);
  /// The restore is over: serve on the revived runtime, or launch.
  void restored(std::uint32_t slot, Result<engine::LaunchReport> r);
  /// The launch tail of provision_cold (also the fallback when a
  /// snapshot-tier restore loses its container).  The caller has already
  /// counted the cold start.
  void launch_cold(std::uint32_t slot);
  /// A launch is over: launch_cold's, or the relaunch after a failed thaw.
  void launched(std::uint32_t slot, Result<engine::LaunchReport> r);

  /// Run the request on its entry's runtime, thawing it first if frozen.
  void run_on(std::uint32_t slot);
  /// The thaw is over: run, or replace the runtime with a fresh launch.
  void thawed(std::uint32_t slot, Result<bool> r);
  /// The exec is over: answer the client, then clean.
  void exec_finished(std::uint32_t slot, Result<engine::ExecReport> r);
  /// The clean is over: readmit (Algorithm 2) and free the record.
  void cleaned(std::uint32_t slot, Result<bool> r);
  /// Free the record, then answer the client with the request's failure.
  void fail(std::uint32_t slot, const Error& error);

  /// Record one span when a tracer is attached (no-op otherwise).
  void emit_span(std::uint64_t trace_id, obs::Stage stage, TimePoint start,
                 Duration dur, std::uint64_t key_hash,
                 std::uint8_t flags = 0);

  /// Freeze pool entries idle past options_.pause_idle_after.
  void pause_stale_entries(TimePoint now);

  void notify_pool_change(const spec::RuntimeKey& key) {
    if (pool_listener_) pool_listener_(key);
  }

  /// The registry collector: every ledger value under its one name.
  void collect(obs::MetricSink& out) const;

  /// Pushed instruments: histograms and the values no ledger keeps.  All
  /// null until a registry is attached via ControllerOptions::registry.
  struct Instruments {
    obs::Counter* prediction_samples = nullptr;
    obs::Gauge* prediction_error_sum = nullptr;
    obs::Gauge* predicted_containers = nullptr;
    obs::LogHistogram* respec_duration_ms = nullptr;
    obs::LogHistogram* snapshot_checkpoint_ms = nullptr;
    obs::LogHistogram* snapshot_restore_ms = nullptr;
  };

  engine::ContainerEngine& engine_;
  sim::Simulator& sim_;
  ControllerOptions options_;
  /// Single-writer: every mutation happens on the simulator thread (the
  /// sharded wrapper is the concurrent façade; see pool/sharded_pool.hpp).
  pool::RuntimePool pool_ HOTC_CALLER_SERIALIZED;
  Rng rng_;
  ControllerStats stats_;
  Instruments obs_;
  /// Per-key state by KeyId, in slots claimed in first-request order (a
  /// KeyState stays put while later keys are added).
  IdSlab<KeyState> keys_;
  /// keys_ slots sorted by canonical key text (spec::InternTextLess):
  /// adaptive ticks visit keys in this order, the historical one.  Kept
  /// sorted on insert, the only time it changes.
  std::vector<std::uint32_t> tick_order_;
  std::function<void(const spec::RuntimeKey&)> pool_listener_;
  Slab<InFlight> in_flight_;
  /// Cross-key donor index; null unless enable_sharing.
  std::unique_ptr<share::DonorRegistry> donors_;
  /// Snapshot tier index; null unless options.tiering.enabled.
  std::unique_ptr<snapshot::CheckpointStore> store_;
  bool adaptive_running_ = false;
  TimePoint adaptive_until_ = kZeroDuration;
  /// 1-based adaptive-tick ordinal (journal record tick ids).
  std::uint64_t tick_ = 0;
  /// Donor hits as of the previous tick's summary record.
  std::uint64_t summary_donor_hits_ = 0;
  obs::Registry::Collection collection_;  // last: unregisters first
};

}  // namespace hotc
