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
//     attached), so Prometheus scrapes see stage latency distributions.
//
// The ring is multi-writer safe without locks: one fetch_add on the head
// ticket assigns (slot, cycle), and the writer then claims the slot with
// one CAS on its sequence word — only from a readable (or never-written)
// value of an older cycle.  A writer that loses the claim, because a
// writer of another cycle holds or has already republished the slot,
// counts a drop and writes nothing, so exactly one writer at a time ever
// stores into a slot's words.  Payload words are release-stored /
// acquire-read atomics, so concurrent snapshot() readers are race-free
// (TSan clean) and discard any slot whose sequence changed under them.
//
// Timestamps are hotc::TimePoint — virtual time under the simulator,
// wall-clock offsets in real drivers; callers supply them, the recorder
// never reads a clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/time.hpp"
#include "obs/metrics.hpp"

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
  /// spans within and across traces.  Stamped by FlightRecorder::record,
  /// callers never set it.
  std::uint32_t span_seq = 0;
  std::uint16_t shard = kNoShard;
  Stage stage = Stage::kForward;
  std::uint8_t flags = 0;
};

/// Bounded MPMC span ring; capacity is rounded up to a power of two.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Publish one span (may drop under pathological lapping; see
  /// dropped()).  `rec.span_seq` is overwritten with the publication
  /// ticket.  Inline: this is the per-span hot path, bounded by one
  /// fetch_add, one CAS and six stores.
  void record(SpanRecord rec) {
    const std::uint64_t ticket =
        head_.fetch_add(1, std::memory_order_relaxed);
    rec.span_seq = static_cast<std::uint32_t>(ticket);
    Slot& slot = slots_[ticket & mask_];
    const std::uint64_t writing = 2 * (ticket >> shift_) + 1;
    // Claim: the slot must be readable or empty (even) and from an older
    // cycle.  An odd value means another writer is mid-store; a value at
    // or past `writing` means a newer cycle lapped this stalled writer.
    // Either way the span is dropped before any word is touched, so a
    // reader can never validate a mix of two records.
    std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
    if ((seen & 1) != 0 || seen > writing ||
        !slot.seq.compare_exchange_strong(seen, writing,
                                          std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pack(rec, slot);
    slot.seq.store(writing + 1, std::memory_order_release);
  }

  /// Copy out every currently-readable span, oldest first.  Concurrent
  /// writers may overwrite slots mid-read; those slots are skipped, never
  /// torn.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Spans ever published (monotonic; ring position derives from it).
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The raw slot array, for the black-box crash dumper (obs/blackbox.hpp):
  /// a stable, contiguous memory image a signal handler may copy with
  /// nothing but write(2).  Each slot is `stride` bytes — a u64 sequence
  /// word followed by `words` u64 payload words (plus alignment padding);
  /// the offline decoder (obs/postmortem.hpp) rebuilds publication order
  /// from the per-slot sequence protocol alone, so no head pointer is
  /// needed.  Concurrent writers may tear slots mid-dump exactly as they
  /// may mid-snapshot(); torn slots fail sequence validation and are
  /// skipped by the decoder, never misread.
  struct RawRing {
    const void* data = nullptr;
    std::size_t bytes = 0;
    std::uint64_t capacity = 0;
    std::uint64_t shift = 0;  // log2(capacity)
    std::uint64_t words = 0;  // payload words per slot
    std::uint64_t stride = 0; // bytes per slot
  };
  [[nodiscard]] RawRing raw_ring() const {
    return {slots_.data(), slots_.size() * sizeof(Slot), slots_.size(),
            shift_, 5, sizeof(Slot)};
  }

 private:
  // seq protocol per slot: 0 = never written; 2c+1 = write in progress
  // for cycle c; 2c+2 = readable, written at cycle c (cycle = ticket >>
  // shift).  Payload words are release-stored and acquire-loaded: a
  // reader that sees any word of an in-progress overwrite is forced to
  // also see the writer's odd sequence on its validating re-read, so a
  // torn slot never passes validation.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[5]{};
  };

  // Release stores: each word orders the slot's odd ("writing") sequence
  // store before itself, so a reader that acquire-loads any new-cycle
  // word is guaranteed to observe the sequence change when it re-reads
  // seq — a half-written slot can never validate.  On x86 a release
  // store is a plain store; this costs nothing on the hot path.
  static void pack(const SpanRecord& rec, Slot& slot) {
    slot.words[0].store(rec.trace_id, std::memory_order_release);
    slot.words[1].store(rec.key_hash, std::memory_order_release);
    slot.words[2].store(static_cast<std::uint64_t>(rec.start_ns),
                        std::memory_order_release);
    slot.words[3].store(static_cast<std::uint64_t>(rec.dur_ns),
                        std::memory_order_release);
    const std::uint64_t meta =
        (static_cast<std::uint64_t>(rec.span_seq) << 32) |
        (static_cast<std::uint64_t>(rec.shard) << 16) |
        (static_cast<std::uint64_t>(rec.stage) << 8) |
        static_cast<std::uint64_t>(rec.flags);
    slot.words[4].store(meta, std::memory_order_release);
  }
  static SpanRecord unpack(const Slot& slot);

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  unsigned shift_ = 0;  // log2(capacity): cycle = ticket >> shift_
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Facade the instrumented layers talk to: one ring + optional per-stage
/// histograms + a global enable switch (one relaxed load when disabled).
class Tracer {
 public:
  /// `registry` may be null (ring only).  When given, each recorded span
  /// also feeds `hotc_stage_duration_ms{stage="..."}`.
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

  /// Delta-sync the ring's recorded()/dropped() totals into
  /// hotc_trace_recorded_total / hotc_trace_dropped_total.  Called once
  /// per adaptive tick (never per span: the span hot path stays inside
  /// the Fig. 15 tracing budget).  Safe from one caller at a time — the
  /// controller tick is the single stock caller.
  void sync_trace_counters();

 private:
  FlightRecorder ring_;
  Registry* registry_;
  LogHistogram* stage_hist_[kStageCount] = {};
  Counter* recorded_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  std::uint64_t recorded_synced_ = 0;
  std::uint64_t dropped_synced_ = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> exemplars_{true};
  std::atomic<std::uint64_t> next_id_{0};
};

}  // namespace hotc::obs
