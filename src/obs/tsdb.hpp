// Retained metric history: a fixed-footprint in-memory time-series store.
//
// Once per adaptive tick the controller hands the store the same
// Registry cut the SLO engine evaluates (one snapshot feeds both — the
// tick tail pays for a single read of every instrument and collector).  The
// store appends one *frame* per tick into a byte ring:
//
//   counters       delta-of-delta, zigzag varint.  Steady traffic has
//                  near-constant per-tick deltas, so the second
//                  difference is ~0 and costs one byte per series;
//   gauges         full 8-byte value (gauges are not monotone; deltas
//                  buy nothing);
//   histograms     sparse changed-bucket deltas (varint bucket index +
//                  varint count delta) — a tick touches a handful of the
//                  240 log-scale buckets.
//
// Everything queries need later is reconstructible from the frames plus
// the per-series (last value, last delta) kept in the flat series table:
// walking frames newest -> oldest inverts the encoding
// (delta[i-1] = delta[i] - dod[i], value[i-1] = value[i] - delta[i]), so
// evicting old frames never strands the survivors.
//
// Retention is purely by footprint: a frame ring of `frame_capacity`
// slots over a `ring_bytes` payload ring; whichever fills first evicts
// the oldest frame.  All state lives in buffers sized once at
// construction — the byte ring, the frame table, the series table and
// the name arena are raw memory images the BlackBox crash dumper
// (obs/blackbox.hpp) copies with write(2) and the offline decoder
// (obs/postmortem.hpp) validates per-frame via an FNV-1a checksum.
//
// The sampler doubles as an anomaly detector: each counter/gauge series
// keeps a short window of trailing per-tick deltas, and a new delta
// whose robust z-score (|d - median| / (1.4826 * MAD)) clears the
// threshold raises an alert into the PR-5 SloEngine ring
// (AlertKind::kAnomaly).  The MAD denominator makes the detector immune
// to its own history being polluted by the step it just flagged; the
// absolute `min_delta` floor keeps ultra-quiet series (MAD -> 0) from
// paging on one stray event.
//
// Locking: one RankedMutex in the new kObsTsdb band (65) — below
// kObsDiagnosis (70) so the detector may push alerts while sampling, and
// below kObsRegistry (80) so a sample may read the registry's collector
// epoch.  The store's own totals (hotc_tsdb_*, hotc_anomaly_*) are read
// under it by the store's registry collector.  Queries take the same lock; the sampler is
// single-writer by contract (the controller tick), queries may race it
// freely.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace hotc::obs {

struct TsdbOptions {
  /// Max retained frames (ticks of history).
  std::size_t frame_capacity = 512;
  /// Payload ring budget; the oldest frame is evicted when full.
  std::size_t ring_bytes = 1 << 20;
  /// Flat series-table capacity; series past this are dropped (counted).
  std::size_t max_series = 4096;
  /// Name-arena bytes ("name|labels" per series, fixed at construction).
  std::size_t name_bytes = 1 << 18;
  // --- anomaly detector ----------------------------------------------------
  /// Trailing per-tick deltas per series the MAD window sees.
  std::size_t anomaly_window = 32;
  /// Robust z-score at or above this fires.
  double anomaly_threshold = 6.0;
  /// |delta - median| must also clear this absolute floor (quiet-series
  /// guard: MAD of an all-equal window is 0).
  double anomaly_min_delta = 4.0;
  /// ...and this fraction of |median| (scale guard: a short window that
  /// happens to cluster tightly makes the MAD collapse, which would let
  /// ordinary jitter on a busy series — 100 +/- 5 per tick — clear the
  /// z-score threshold).  The floor is
  /// max(anomaly_min_delta, anomaly_min_ratio * max(|median|, 1)).
  double anomaly_min_ratio = 0.25;
  /// Deltas observed before a series may fire (warm-up guard).
  std::size_t anomaly_min_history = 8;
  /// Ticks a fired series stays silent (one page per incident).
  std::size_t anomaly_cooldown = 10;
  /// Bounded local anomaly ring (oldest dropped first).
  std::size_t anomaly_capacity = 256;
};

/// One (tick, value) query result point.
struct TsdbPoint {
  std::uint64_t tick = 0;
  double value = 0.0;
};

struct AnomalyEvent {
  std::uint64_t tick = 0;
  std::string series;  // metric family name
  std::string labels;
  double zscore = 0.0;
  double delta = 0.0;   // the offending per-tick delta
  double median = 0.0;  // window median at detection time
};

class TimeSeriesStore {
 public:
  /// `slo` is optional: when given, anomaly events are mirrored into its
  /// alert ring as AlertKind::kAnomaly.  Both must outlive the store.
  explicit TimeSeriesStore(Registry& registry, TsdbOptions options = {},
                           SloEngine* slo = nullptr);

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Append one frame from a fresh Registry snapshot.
  void sample(std::uint64_t tick);
  /// As sample(), over a cut the caller already took — the controller
  /// shares one snapshot between the SLO engine and this store.
  void sample_snapshot(std::uint64_t tick, const RegistrySnapshot& snap);

  // --- queries (all under the store lock, safe against the sampler) --------
  /// Per-tick values of a counter or gauge series over [from, to]
  /// (inclusive; 0/UINT64_MAX = unbounded), oldest first.
  [[nodiscard]] std::vector<TsdbPoint> range(
      const std::string& name, const std::string& labels,
      std::uint64_t from_tick = 0,
      std::uint64_t to_tick = ~std::uint64_t{0}) const;
  /// Per-tick deltas (counters: increments; gauges: value changes) over
  /// the same window, oldest first.
  [[nodiscard]] std::vector<TsdbPoint> rate(
      const std::string& name, const std::string& labels,
      std::uint64_t from_tick = 0,
      std::uint64_t to_tick = ~std::uint64_t{0}) const;
  /// Quantile of a histogram series over the newest `window` frames
  /// (bucket deltas summed, then answered like HistogramSnapshot).
  [[nodiscard]] double quantile_over(const std::string& name,
                                     const std::string& labels, double q,
                                     std::size_t window) const;
  /// Per-tick quantiles (each frame's own bucket delta), oldest first —
  /// the p99 sparkline feed.  Ticks where the histogram saw no samples
  /// carry value 0.
  [[nodiscard]] std::vector<TsdbPoint> quantile_series(
      const std::string& name, const std::string& labels, double q,
      std::size_t last_n) const;

  [[nodiscard]] std::vector<AnomalyEvent> anomalies() const;

  // --- introspection --------------------------------------------------------
  [[nodiscard]] Registry& registry() const { return registry_; }
  [[nodiscard]] std::size_t frames() const;
  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::uint64_t samples() const;
  [[nodiscard]] std::uint64_t frames_evicted() const;
  [[nodiscard]] std::uint64_t last_tick() const;

  // --- raw regions for the black-box dumper ---------------------------------
  /// A stable pre-allocated buffer image; see obs/blackbox.hpp.  The
  /// params quadruple is region-specific and carried verbatim into the
  /// dump so the offline decoder can rebuild the store's geometry.
  struct RawRegion {
    const void* data = nullptr;
    std::size_t bytes = 0;
    std::uint64_t params[4] = {0, 0, 0, 0};
  };
  // Lock-free by design: called from the crash dumper's fatal-signal /
  // pre-abort context, where acquiring mu_ could deadlock against the
  // thread that crashed mid-sample.  The buffers never move after
  // construction and the offline decoder checksums each frame, skipping
  // any the crash tore.
  [[nodiscard]] RawRegion ring_region() const     // payload byte ring
      HOTC_NO_THREAD_SAFETY_ANALYSIS;
  [[nodiscard]] RawRegion frame_region() const    // FrameInfo table
      HOTC_NO_THREAD_SAFETY_ANALYSIS;
  [[nodiscard]] RawRegion series_region() const   // SeriesInfo table
      HOTC_NO_THREAD_SAFETY_ANALYSIS;
  [[nodiscard]] RawRegion name_region() const     // name arena
      HOTC_NO_THREAD_SAFETY_ANALYSIS;
  [[nodiscard]] RawRegion meta_region() const     // MetaBlock
      HOTC_NO_THREAD_SAFETY_ANALYSIS;

  // --- encoding primitives (shared with tests + the offline decoder) --------
  /// LEB128; `out` needs up to 10 bytes.  Returns bytes written.
  static std::size_t encode_varint(std::uint64_t v, std::uint8_t* out);
  /// Returns bytes consumed, 0 on truncation/overlong input.
  static std::size_t decode_varint(const std::uint8_t* in, std::size_t avail,
                                   std::uint64_t* out);
  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }
  static std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
  }
  /// FNV-1a 32 over a byte span (the per-frame checksum).
  static std::uint32_t checksum(const std::uint8_t* data, std::size_t len);
  /// Robust z-score of `delta` against a window of trailing deltas:
  /// |delta - median| / (1.4826 * MAD), with a tiny epsilon denominator
  /// floor.  Pure — the live detector and the post-mortem re-scan share
  /// it, so "would this have fired?" is answerable offline.
  static double robust_zscore(const double* window, std::size_t n,
                              double delta, double* median_out = nullptr);
  /// The |delta - median| firing floor (see TsdbOptions::anomaly_min_ratio).
  /// Shared with the post-mortem re-scan so both fire identically.
  static double anomaly_floor(const TsdbOptions& options, double median) {
    const double scale = median < 0.0 ? -median : median;
    const double rel = options.anomaly_min_ratio * (scale > 1.0 ? scale : 1.0);
    return rel > options.anomaly_min_delta ? rel : options.anomaly_min_delta;
  }

  // --- POD layouts (shared with obs/postmortem.cpp) -------------------------
  /// Series kinds in SeriesInfo::kind.
  static constexpr std::uint8_t kCounterSeries = 0;
  static constexpr std::uint8_t kGaugeSeries = 1;
  static constexpr std::uint8_t kHistogramSeries = 2;

  struct FrameInfo {  // one retained tick
    std::uint64_t tick = 0;
    std::uint64_t offset = 0;  // payload start in the byte ring
    std::uint32_t len = 0;
    std::uint32_t series_in_frame = 0;
    std::uint32_t checksum = 0;
    std::uint32_t reserved = 0;
  };

  struct SeriesInfo {  // one registered series (flat, dump-safe)
    std::uint32_t name_off = 0;   // into the name arena: "name|labels"
    std::uint16_t name_len = 0;
    std::uint16_t sep = 0;        // offset of '|' within the entry
    std::uint8_t kind = kCounterSeries;
    std::uint8_t reserved[7] = {0, 0, 0, 0, 0, 0, 0};
    double last_value = 0.0;      // cumulative value at the newest frame
    double last_delta = 0.0;      // per-tick delta at the newest frame
  };

  struct MetaBlock {  // store geometry + counters, dumped verbatim
    std::uint64_t frame_head = 0;   // index of the oldest retained frame
    std::uint64_t frame_count = 0;
    std::uint64_t ring_head = 0;    // next write offset in the byte ring
    std::uint64_t ring_used = 0;
    std::uint64_t series_count = 0;
    std::uint64_t last_tick = 0;
    std::uint64_t samples = 0;
    std::uint64_t frames_evicted = 0;
    std::uint64_t frames_dropped = 0;   // frame larger than the whole ring
    std::uint64_t series_dropped = 0;   // series/name capacity exhausted
  };

  /// find_or_add_series() result when the series/name tables are full.
  static constexpr std::size_t kNoSeries = static_cast<std::size_t>(-1);

 private:
  struct SideState {  // per-series, query/encode helpers — NOT dumped
    std::string name;
    std::string labels;
    // Histogram encode state: last bucket counts (+2 for under/overflow).
    std::vector<std::uint64_t> last_buckets;
    // Anomaly window: trailing per-tick deltas as a fixed ring (the
    // robust statistics treat it as a bag, so insertion order never
    // needs recovering).  Sized on first use, never resized after.
    std::vector<double> window;
    std::size_t win_pos = 0;    // next overwrite slot
    std::size_t win_count = 0;  // filled entries, <= window.size()
    // True while every remembered delta is exactly zero: an idle series
    // with a saturated all-zero window costs one compare per tick, no
    // window write, no EWMA update.  Cleared by the first nonzero delta
    // and never re-derived (conservative: a once-active series keeps
    // paying the normal path).
    bool win_zero = true;
    // EWMA of recent deltas and of their absolute deviation (alpha 1/8):
    // the cheap center/spread estimates the per-tick fast path compares
    // against before paying for the full median/MAD selection.
    double center = 0.0;
    double spread = 0.0;
    std::uint64_t cooldown_until = 0;
    bool seeded = false;  // first observation consumed (no delta yet)
  };

  [[nodiscard]] std::size_t find_or_add_series(const std::string& name,
                                               const std::string& labels,
                                               std::uint8_t kind)
      HOTC_REQUIRES(mu_);
  void append_frame(std::uint64_t tick, std::uint32_t series_in_frame)
      HOTC_REQUIRES(mu_);
  void evict_oldest_frame() HOTC_REQUIRES(mu_);
  void observe_delta(std::size_t sid, std::uint64_t tick, double delta)
      HOTC_REQUIRES(mu_);
  /// Decode this series' per-frame (value, delta) pairs, oldest first,
  /// by walking retained frames newest -> oldest from the series-table
  /// anchor.  Histograms get (0, 0) placeholders.
  void decode_series(std::size_t sid, std::vector<std::uint64_t>* ticks,
                     std::vector<double>* values,
                     std::vector<double>* deltas) const HOTC_REQUIRES(mu_);
  /// Sum a histogram series' bucket deltas over the newest `window`
  /// frames into `counts` (size buckets + 2; the tail two are
  /// under/overflow).  Returns summed total.
  std::uint64_t sum_histogram(std::size_t sid, std::size_t window,
                              std::vector<std::uint64_t>* counts,
                              std::vector<std::uint64_t>* per_frame_totals,
                              std::vector<std::uint64_t>* frame_ticks) const
      HOTC_REQUIRES(mu_);
  [[nodiscard]] const std::uint8_t* frame_payload(const FrameInfo& f,
                                                  std::vector<std::uint8_t>*
                                                      scratch) const
      HOTC_REQUIRES(mu_);
  [[nodiscard]] int series_index(const std::string& name,
                                 const std::string& labels) const
      HOTC_REQUIRES(mu_);

  Registry& registry_;
  TsdbOptions options_;
  SloEngine* slo_;

  mutable RankedMutex mu_{LockRank::kObsTsdb, 0, "obs.tsdb"};
  // Fixed buffers (never resized after construction: the BlackBox holds
  // raw pointers into them).
  std::vector<std::uint8_t> ring_ HOTC_GUARDED_BY(mu_);
  std::vector<FrameInfo> frames_ HOTC_GUARDED_BY(mu_);
  std::vector<SeriesInfo> series_ HOTC_GUARDED_BY(mu_);
  std::vector<char> names_ HOTC_GUARDED_BY(mu_);
  MetaBlock meta_ HOTC_GUARDED_BY(mu_);
  std::size_t names_used_ HOTC_GUARDED_BY(mu_) = 0;

  std::vector<SideState> side_ HOTC_GUARDED_BY(mu_);
  // Index key is "name\x1flabels" in one string so the per-tick lookup can
  // reuse lookup_'s capacity instead of building a pair of string copies.
  std::map<std::string, std::size_t> index_ HOTC_GUARDED_BY(mu_);
  std::string lookup_ HOTC_GUARDED_BY(mu_);
  // Snapshot-position -> sid cache (see sample_snapshot): the per-tick
  // loop skips every string lookup.  Rebuilt whenever the sample count or
  // the registry's collector epoch changes.
  std::vector<std::size_t> snap_sids_ HOTC_GUARDED_BY(mu_);
  std::uint64_t snap_epoch_ HOTC_GUARDED_BY(mu_) = 0;
  // Per-series anomaly judgements and fired anomalies, all time.
  std::uint64_t anomaly_checks_ HOTC_GUARDED_BY(mu_) = 0;
  std::uint64_t anomaly_events_ HOTC_GUARDED_BY(mu_) = 0;
  // Reused encode scratch: per-series body, assembled frame payload.
  std::vector<std::uint8_t> scratch_ HOTC_GUARDED_BY(mu_);
  std::vector<std::uint8_t> payload_ HOTC_GUARDED_BY(mu_);
  std::deque<AnomalyEvent> anomaly_ring_ HOTC_GUARDED_BY(mu_);
  Registry::Collection collection_;  // last: unregisters first
};

}  // namespace hotc::obs
