// Request lifecycle tracing: spans + a bounded lock-free flight recorder.
//
// Every gateway submit opens a trace (trace id = the request id); each
// stage the request crosses — forwarding, parse, pool lookup, cold start
// vs reuse, execution, volume clean, readmit — records one SpanRecord.
// Records go two places:
//
//   * the FlightRecorder, a fixed-capacity ring that always holds the
//     last N spans, so the recent past is inspectable post-mortem (JSONL
//     or chrome://tracing dumps) at near-zero steady-state cost;
//   * per-stage LogHistograms in the metrics Registry (when one is
//     attached), so Prometheus scrapes see stage latency distributions;
//     the registry also collects the ring's recorded and dropped totals.
//
// The ring is obs::SeqRing (obs/seq_ring.hpp): multi-writer safe
// without locks, readable while written, decodable from a crash dump.
//
// Timestamps are hotc::TimePoint — virtual time under the simulator,
// wall-clock offsets in real drivers; callers supply them, the recorder
// never reads a clock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "core/time.hpp"
#include "obs/metrics.hpp"
#include "obs/seq_ring.hpp"

namespace hotc::obs {

/// The stages of the gateway -> pool -> engine -> clean -> readmit path.
enum class Stage : std::uint8_t {
  kForward = 0,     // client -> gateway -> watchdog hops
  kParse,           // spec canonicalised into a runtime key
  kPoolLookup,      // Algorithm 1 key-value store probe
  kColdStart,       // full runtime provisioning (pull/create/start)
  kReuse,           // warm hit: the pooled runtime was taken
  kResume,          // frozen pooled runtime thawed
  kRestore,         // checkpoint image restored instead of cold boot
  kExec,            // function execution inside the container
  kClean,           // Algorithm 2 volume wipe + remount
  kReadmit,         // cleaned runtime returned to the pool
  kReturn,          // watchdog -> gateway -> client hops
  kPrewarm,         // Algorithm 3 predictive warm-up launch
  kEvict,           // pressure / adaptive eviction
  kRoute,           // cluster node selection
  kDonorLookup,     // cross-key donor search on the miss path
  kRespecialize,    // donor container converted to the request's key
  kDriftRestart,    // forecast-drift intervention: predictor restarted
  kCheckpoint,      // idle runtime demoted into the snapshot tier
};
constexpr int kStageCount = 18;

const char* to_string(Stage stage);

/// Span flag bits.
inline constexpr std::uint8_t kSpanCold = 1;      // paid a cold start
inline constexpr std::uint8_t kSpanHit = 2;       // pool lookup hit
inline constexpr std::uint8_t kSpanError = 4;     // the stage failed

/// No shard attribution (controller-local pool, gateway hops...).
inline constexpr std::uint16_t kNoShard = 0xffff;

/// One span: fixed-size, no heap, 40 bytes packed into 5 words.
struct SpanRecord {
  std::uint64_t trace_id = 0;   // request id; 0 = unattributed
  std::uint64_t key_hash = 0;   // RuntimeKey::hash() when known
  std::int64_t start_ns = 0;    // TimePoint offset
  std::int64_t dur_ns = 0;
  /// Global publication ordinal (the ring ticket, truncated): orders
  /// spans within and across traces.  Stamped by to_words() at publish,
  /// callers never set it.
  std::uint32_t span_seq = 0;
  std::uint16_t shard = kNoShard;
  Stage stage = Stage::kForward;
  std::uint8_t flags = 0;

  // SeqRing codec (obs/seq_ring.hpp).
  static constexpr std::size_t kWords = 5;
  [[nodiscard]] std::array<std::uint64_t, kWords> to_words(
      std::uint64_t ticket) const {
    return {trace_id, key_hash, static_cast<std::uint64_t>(start_ns),
            static_cast<std::uint64_t>(dur_ns),
            (ticket << 32) | (std::uint64_t{shard} << 16) |
                (static_cast<std::uint64_t>(stage) << 8) | flags};
  }
  [[nodiscard]] static SpanRecord from_words(
      const std::array<std::uint64_t, kWords>& w);
};

/// Bounded MPMC span ring; capacity is rounded up to a power of two.
/// `record()` stamps span_seq with the publication ticket.
using FlightRecorder = SeqRing<SpanRecord>;

/// Facade the instrumented layers talk to: one ring + optional per-stage
/// histograms + a global enable switch (one relaxed load when disabled).
class Tracer {
 public:
  /// `registry` may be null (ring only).  When given, each recorded span
  /// also feeds `hotc_stage_duration_ms{stage="..."}`, and snapshots read
  /// the ring's totals as hotc_trace_{recorded,dropped}_total.
  explicit Tracer(std::size_t ring_capacity = 4096,
                  Registry* registry = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Histogram exemplars (trace-id per bucket); on by default.
  [[nodiscard]] bool exemplars() const {
    return exemplars_.load(std::memory_order_relaxed);
  }
  void set_exemplars(bool on) {
    exemplars_.store(on, std::memory_order_relaxed);
  }

  /// Record one span.  No-op (one relaxed load) when disabled.
  void span(std::uint64_t trace_id, Stage stage, TimePoint start,
            Duration dur, std::uint64_t key_hash = 0,
            std::uint16_t shard = kNoShard, std::uint8_t flags = 0) {
    if (!enabled()) return;
    SpanRecord rec;
    rec.trace_id = trace_id;
    rec.key_hash = key_hash;
    rec.start_ns = start.count();
    rec.dur_ns = dur.count();
    rec.shard = shard;
    rec.stage = stage;
    rec.flags = flags;
    ring_.record(rec);
    // Zero-duration spans are instant markers (pool lookup, readmit...):
    // they have no latency to distribute, and feeding 0 would only skew
    // the stage histogram toward its underflow bucket.
    if (dur.count() == 0) return;
    LogHistogram* hist = stage_hist_[static_cast<int>(stage)];
    if (hist != nullptr) {
      // Exemplar = the trace id: one extra relaxed store per observation
      // buys the p99-bucket -> span cross-link (gated at <= 1 % on top of
      // the tracing budget by bench_diagnosis).
      if (exemplars_.load(std::memory_order_relaxed)) {
        hist->observe(to_milliseconds(dur), trace_id);
      } else {
        hist->observe(to_milliseconds(dur));
      }
    }
  }

  /// Trace ids for drivers that do not have a natural request id.
  [[nodiscard]] std::uint64_t next_trace_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  [[nodiscard]] const FlightRecorder& recorder() const { return ring_; }
  [[nodiscard]] Registry* registry() const { return registry_; }

 private:
  FlightRecorder ring_;
  Registry* registry_;
  LogHistogram* stage_hist_[kStageCount] = {};
  std::atomic<bool> enabled_{true};
  std::atomic<bool> exemplars_{true};
  std::atomic<std::uint64_t> next_id_{0};
  Registry::Collection collection_;  // last: unregisters first
};

}  // namespace hotc::obs
