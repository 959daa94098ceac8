// Decision journal: why did the controller prewarm / retire / evict?
//
// A fixed-footprint append-only ring of DecisionRecords, one per runtime
// key per adaptive tick (plus one per-tick summary record), holding every
// input the Algorithm 3 decision saw — demand, smoothed trend, Markov
// region, forecast, warm stock, capacity headroom — and every output it
// produced.  The ring is obs::SeqRing (obs/seq_ring.hpp), the span
// flight recorder's ring at a larger record.
//
// Because the journal records *all* inputs, the decision itself is a pure
// function — decide_tick() below — shared by the live controller and the
// replay harness.  replay_journal() re-runs a fresh predictor over the
// recorded demand series and asserts, bit for bit, that every smoothed
// value, Markov region, forecast, prewarm count, retire count and donor
// nomination matches what the live run journalled: "why did it evict?"
// becomes a test.  Drift-intervention restarts (obs/drift.hpp) are part
// of the record (kJournalDriftRestart), so replay applies them at the
// same point in the series and stays deterministic.
//
// Audit: tick ids must be positive and monotonically non-decreasing —
// an out-of-band tick means a caller is journalling outside the adaptive
// loop and the record stream is no longer a replayable trace.  Under
// HOTC_AUDIT (and in debug builds) a violation aborts; release builds
// drop the record and count it.
//
// The diagnosis layer's lock band (LockRank::kObsDiagnosis, below the
// metrics-registry band) is documented in core/ranked_mutex.hpp; the
// ring itself is lock-free and never takes it — the band serialises the
// SLO engine state (obs/slo.hpp) that sits beside this journal.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ranked_mutex.hpp"
#include "obs/seq_ring.hpp"
#include "predict/predictor.hpp"

namespace hotc::obs {

/// DecisionRecord flag bits.
inline constexpr std::uint8_t kJournalDriftRestart = 1;   // predictor restarted
inline constexpr std::uint8_t kJournalDonorNominated = 2; // surplus nominated
inline constexpr std::uint8_t kJournalDonationMuted = 4;  // drift cooldown
inline constexpr std::uint8_t kJournalSummary = 8;        // per-tick totals

/// One adaptive-tick decision for one runtime key (or, with
/// kJournalSummary set, the tick's global totals under key_hash 0).
struct DecisionRecord {
  std::uint64_t tick = 0;      // 1-based adaptive-tick ordinal
  std::uint64_t key_hash = 0;  // RuntimeKey::hash(); 0 on summary records
  std::uint32_t key_id = 0;    // interned KeyId (joins per-key metric
                               // labels, which carry the decimal id);
                               // 0 on summary records
  // --- inputs ------------------------------------------------------------
  double demand = 0.0;    // observed interval peak concurrency
  double smoothed = 0.0;  // ES trend component after observing demand
  double forecast = 0.0;  // predictor output for the next interval
  std::int8_t markov_region = -1;  // residual-chain state; -1 = unfitted
  std::uint16_t have = 0;          // available + busy at decision time
  std::uint16_t available = 0;     // idle pooled (the retire ceiling)
  std::uint16_t headroom = 0;      // global live-capacity room (prewarm cap)
  // --- outputs -----------------------------------------------------------
  std::uint16_t prewarms = 0;
  std::uint16_t retires = 0;
  std::uint16_t evictions = 0;  // summary records only (pressure is global)
  std::uint16_t donations = 0;  // summary records only (donor hits delta)
  std::uint8_t flags = 0;

  // SeqRing codec (obs/seq_ring.hpp); decisions carry no ticket.
  static constexpr std::size_t kWords = 8;
  [[nodiscard]] std::array<std::uint64_t, kWords> to_words(
      std::uint64_t /*ticket*/) const {
    return {tick, key_hash, std::bit_cast<std::uint64_t>(demand),
            std::bit_cast<std::uint64_t>(smoothed),
            std::bit_cast<std::uint64_t>(forecast),
            std::uint64_t{static_cast<std::uint8_t>(markov_region)} |
                (std::uint64_t{flags} << 8) | (std::uint64_t{have} << 16) |
                (std::uint64_t{available} << 32) |
                (std::uint64_t{headroom} << 48),
            std::uint64_t{prewarms} | (std::uint64_t{retires} << 16) |
                (std::uint64_t{evictions} << 32) |
                (std::uint64_t{donations} << 48),
            key_id};
  }
  [[nodiscard]] static DecisionRecord from_words(
      const std::array<std::uint64_t, kWords>& w);
};

/// Everything decide_tick() needs: the per-key slice of controller state
/// at one adaptive tick.  Mirrors what the journal records, so a replay
/// can rebuild it from a DecisionRecord alone.
struct TickInputs {
  double forecast = 0.0;
  std::size_t have = 0;       // available + busy
  std::size_t available = 0;  // idle pooled containers of this key
  std::size_t headroom = 0;   // global live-capacity room for prewarms
  bool prewarm_enabled = true;
  bool retire_enabled = true;
  bool sharing_enabled = false;
  bool donation_muted = false;  // drift cooldown: no nomination
};

struct TickDecision {
  std::size_t prewarms = 0;
  std::size_t retires = 0;
  bool nominate_donor = false;
};

/// The Algorithm 3 per-key resize decision as a pure function of its
/// recorded inputs.  The live controller and replay_journal() both call
/// this — single source of truth, so replay equality is meaningful.
[[nodiscard]] TickDecision decide_tick(const TickInputs& in);

/// Bounded MPMC decision ring (capacity rounds up to a power of two)
/// behind the tick audit.
class DecisionJournal : private SeqRing<DecisionRecord> {
 public:
  /// `audit` controls the out-of-band-tick check: abort when true, drop +
  /// count when false.  Defaults to the build's lock-audit flavour so
  /// HOTC_AUDIT=ON (and debug) builds fail fast.
  explicit DecisionJournal(std::size_t capacity = 1024,
                           bool audit = kLockAuditEnabled)
      : SeqRing(capacity), audit_(audit) {}

  /// Publish one record.  Ticks must be positive and non-decreasing
  /// across calls; a violation aborts under audit, else the record is
  /// dropped and counted (see rejected()).
  void append(const DecisionRecord& rec);

  using SeqRing::capacity, SeqRing::dropped, SeqRing::raw_ring,
      SeqRing::recorded, SeqRing::snapshot, SeqRing::tail;

  /// Records refused by the tick-monotonicity audit (release builds).
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t last_tick() const {
    return last_tick_.load(std::memory_order_relaxed);
  }

 private:
  bool audit_ = false;
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> last_tick_{0};
};

/// One replay divergence: which field of which (tick, key) record the
/// re-run disagreed with.
struct ReplayMismatch {
  std::uint64_t tick = 0;
  std::uint64_t key_hash = 0;
  std::string field;
  double expected = 0.0;  // the journalled value
  double actual = 0.0;    // what the replay produced
};

struct ReplayResult {
  std::size_t records_checked = 0;
  std::vector<ReplayMismatch> mismatches;
  [[nodiscard]] bool ok() const { return mismatches.empty(); }
};

/// Replay policy flags: the controller options the decisions were made
/// under (everything else is in the records).
struct ReplayPolicy {
  bool prewarm_enabled = true;
  bool retire_enabled = true;
  bool sharing_enabled = false;
};

/// Re-run the predictor over a journal dump and assert bit-identical
/// decisions.  Per key, in tick order: apply the recorded drift restart
/// (if flagged), feed the recorded demand to a fresh predictor from
/// `factory`, and require the smoothed value, Markov region and forecast
/// to match the record bit for bit (doubles compared via their bit
/// patterns — the replay must walk the exact same float path).  Then
/// decide_tick() over the recorded inputs must reproduce the recorded
/// prewarm/retire/nomination outputs.  Summary records are checked for
/// internal consistency (per-key sums) rather than re-derived: evictions
/// and donations depend on global pool pressure, which the per-key
/// predictor cannot see — determinism for those is established by the
/// journal-vs-journal equality of two identical runs (bench_diagnosis).
[[nodiscard]] ReplayResult replay_journal(
    const std::vector<DecisionRecord>& records,
    const std::function<predict::PredictorPtr()>& factory,
    const ReplayPolicy& policy = {});

}  // namespace hotc::obs
