// Continuous profiler: contention, queue-delay, and critical-path
// attribution (DESIGN.md §15).
//
// Three collectors, all fed from paths that are already slow, so the
// enabled profiler stays inside a ≤1 % overhead budget on the pool
// acquire/release pair (gated by bench_prof / BENCH_prof.json):
//
//   * contention — RankedMutex's contended-acquisition path reports
//     (rank band, site name, wait ns) through the core/prof_hook.hpp
//     seam; SeqLock reports read-retry counts the same way.  Samples
//     land in per-thread lock-free tables (fixed static slots, CAS
//     claim, linear-probe cells) merged only at snapshot time;
//   * scheduler — the runtime thread pool reports queue delay and run
//     time per task tag when a profiler is attached;
//   * stage sampler — a background thread periodically reads each
//     registered worker's current trace::Stage marker from a per-thread
//     seqlock-published slot.  No signals, no stack unwinding: workers
//     publish their stage with StageScope and the sampler only ever
//     loads atomics.
//
// Two renderers:
//
//   * to_folded() — collapsed-stack lines (stage → collector → band →
//     site frames, estimated-microsecond values) that flamegraph.pl and
//     speedscope ingest directly; written as OBS_profile.folded;
//   * critical_path() — offline reconstruction of per-request timelines
//     from FlightRecorder spans: top-k stages by total critical-path
//     time with exemplar trace ids (the tools/hotc_prof target).
//
// Hook-safety contract: the static hook methods (on_lock_wait,
// on_seqlock_retry, on_task) and everything they reach are hot-path
// roots for hotc_analyze — no allocation, no ranked mutex (a hook can
// fire while the caller holds locks at any rank, so even a leaf-rank
// mutex here could invert), no unbounded loops.  All collector state is
// trivially-destructible function-local static storage: a hook racing
// with profiler teardown — or with thread exit — always lands in valid
// memory and at worst drops the sample.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace hotc::obs {

/// The contention and scheduler collectors are on whenever the profiler
/// runs.
struct ProfOptions {
  bool sampler = true;      ///< background stage sampler thread
  /// Stage-sampler period.  2 ms = 500 Hz: the stages worth sampling
  /// (cold start, respecialize, exec) are millisecond-scale, and the
  /// sampler's wakeups are charged to the profiler's ≤1 % budget — at
  /// 2 kHz the context switches alone blow it on a single-core host.
  std::chrono::microseconds sampler_period{2000};
};

/// Pseudo-stage index for "no StageScope active" sampler hits.
inline constexpr int kStageIdle = kStageCount;

/// One merged contention bucket: a (site, band, stage) triple.
struct ContentionEntry {
  const char* site = "";      // mutex name (static string)
  std::uint32_t band = 0;     // LockRank band value
  std::uint8_t stage = kStageIdle;  // stage active when the wait began
  std::uint64_t count = 0;    // contended acquisitions
  std::uint64_t wait_ns = 0;  // total blocked time
};

/// One merged scheduler bucket per task tag.
struct TaskEntry {
  const char* tag = "";
  std::uint64_t count = 0;
  std::uint64_t queue_ns = 0;      // total post -> dequeue delay
  std::uint64_t run_ns = 0;        // total execution time
  std::uint64_t queue_max_ns = 0;
  std::uint64_t run_max_ns = 0;
};

/// Consistent-enough merge of every per-thread table.  Counters are
/// monotone, so concurrent writers can only make a snapshot read
/// slightly stale, never torn.
struct ProfSnapshot {
  std::vector<ContentionEntry> contention;  // sorted by wait_ns desc
  std::vector<TaskEntry> tasks;             // sorted by queue_ns desc
  std::uint64_t seqlock_retries = 0;
  /// Waits that missed a full per-thread table (counted, never lost
  /// silently) and threads that found every slot claimed.
  std::uint64_t untracked_waits = 0;
  std::uint64_t untracked_wait_ns = 0;
  std::uint64_t lost_threads = 0;
  /// Sampler hits per stage; index kStageIdle = no StageScope active.
  std::array<std::uint64_t, kStageCount + 1> stage_samples{};
  std::uint64_t sampler_polls = 0;
  std::uint64_t threads_seen = 0;
  std::chrono::microseconds sampler_period{0};

  [[nodiscard]] std::uint64_t total_wait_ns() const;
  /// Share of total recorded lock-wait attributed to one rank band.
  [[nodiscard]] double band_wait_share(std::uint32_t band) const;
};

/// The profiler facade.  Collector state is process-global (static in
/// prof.cpp) so hooks stay valid across instance lifetimes; the
/// instance owns options and the sampler thread.
/// One profiler may run at a time (start() on a second instance while
/// another runs is a no-op returning false).
class Profiler {
 public:
  explicit Profiler(ProfOptions options = {});
  ~Profiler();  // stops if running

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Install hooks, start the sampler.  False if another profiler
  /// (including this one) is already running.
  bool start();
  /// Uninstall hooks, join the sampler.  Counters are retained (a
  /// stopped profiler can still snapshot); reset() clears them.
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Zero every collector counter.  Call while collection is quiescent
  /// (hooks uninstalled or workers idle): a sample racing the reset may
  /// survive it, which skews nothing but the first post-reset read.
  static void reset();

  [[nodiscard]] ProfSnapshot snapshot() const;

  /// Collapsed-stack rendering: "frame;frame;frame value" lines, values
  /// in estimated microseconds (sampler hits × period; waits rounded
  /// up to ≥1 µs so rare-but-real contention survives integer floors).
  static std::string to_folded(const ProfSnapshot& snap);

  // ---- hook entry points (installed via prof::install_hooks) -------
  // Static members so hotc_analyze can root them by class leaf; they
  // must stay allocation-free and lock-free (see header comment).
  static void on_lock_wait(std::uint32_t band, const char* site,
                           std::uint64_t wait_ns);
  static void on_seqlock_retry(std::uint32_t retries);
  static void on_task(const char* tag, std::uint64_t queue_ns,
                      std::uint64_t run_ns);

 private:
  void sampler_loop();

  ProfOptions options_;
  std::thread sampler_;
  std::atomic<bool> stop_requested_{false};
  bool running_ = false;
};

/// Scoped stage marker for the sampler + contention attribution.  Keeps
/// a plain thread_local (same-thread reads from the contention hook)
/// and, while a profiler runs, republishes the stage into the thread's
/// sampler-visible slot under a per-thread sequence word.  Nests: the
/// destructor restores the outer stage.
class StageScope {
 public:
  explicit StageScope(Stage stage, std::uint64_t trace_id = 0);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  std::uint8_t prev_stage_;
  std::uint64_t prev_trace_;
};

// ---- critical-path analysis (offline; shared by bench_prof and ------
// ---- tools/hotc_prof) ----------------------------------------------

/// Aggregate cost of one stage across all reconstructed request
/// timelines.
struct StageCost {
  Stage stage = Stage::kForward;
  std::uint64_t count = 0;        // spans of this stage on request paths
  std::uint64_t total_ns = 0;     // summed duration
  std::uint64_t max_ns = 0;       // worst single span
  std::uint64_t exemplar_trace = 0;  // trace id of that worst span
  double share = 0.0;             // total_ns / sum over all stages
};

struct CriticalPathReport {
  std::size_t traces = 0;            // distinct request timelines seen
  std::size_t spans = 0;             // spans attributed to them
  std::vector<StageCost> stages;     // sorted by total_ns desc, top-k
  std::uint64_t slowest_trace = 0;   // trace with the largest end-start
  std::int64_t slowest_ns = 0;
};

/// Reconstruct per-request timelines (group by trace id, order spans by
/// start_ns then publication seq; trace id 0 — controller background
/// work — is excluded) and attribute time per stage.
[[nodiscard]] CriticalPathReport critical_path(
    const std::vector<SpanRecord>& spans, std::size_t top_k = 10);

/// Fraction of reconstructed timelines (with at least prefix.size()
/// spans) whose leading stages match `prefix` exactly — the
/// stage-ordering gate (forward → parse → pool_lookup on the HotC
/// request path).
[[nodiscard]] double stage_order_fraction(
    const std::vector<SpanRecord>& spans, const std::vector<Stage>& prefix);

/// Human-readable critical-path table (tools/hotc_prof output).
[[nodiscard]] std::string render_critical_path(
    const CriticalPathReport& report);

}  // namespace hotc::obs
