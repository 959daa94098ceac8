// Offline decoder for black-box crash dumps (obs/blackbox.hpp).
//
// The dump is raw memory: seqlock ring slots, varint-encoded TSDB
// frames, POD mirrors.  Everything the writer could not afford at crash
// time happens here, in a healthy process:
//
//   * structural validation — header/trailer magics, version, region
//     bounds and the trailer byte count must all line up, so a
//     truncated or corrupted file is rejected with a precise error
//     instead of decoding into garbage;
//   * seqlock validation — the live rings' own read (SeqRing::decode,
//     obs/seq_ring.hpp): never-written slots are skipped, slots torn by
//     the crash skipped and counted, publication order rebuilt from the
//     per-slot sequences alone, and a ring whose geometry does not fit
//     its region decodes as empty;
//   * TSDB reconstruction — frames are checksum-verified and walked
//     newest -> oldest, inverting the delta-of-delta encoding from the
//     series-table anchors exactly like the live query path; the walk
//     stops at the first torn frame (the backward chain cannot bridge
//     a hole) and counts what it skipped;
//   * anomaly re-scan — the same robust_zscore the live detector uses,
//     re-run over the reconstructed deltas, so "would this have fired?"
//     is answerable from the dump alone.
//
// Consumers: tools/hotc_postmortem (human timeline + OBS_postmortem.json)
// and the unit/crash-drill tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/blackbox.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace hotc::obs {

/// One reconstructed TSDB series, oldest frame first.
struct PostmortemSeries {
  std::string name;
  std::string labels;
  std::uint8_t kind = TimeSeriesStore::kCounterSeries;
  std::vector<std::uint64_t> ticks;
  /// Counters/gauges: absolute values.  Histograms: per-frame p99.
  std::vector<double> values;
  /// Counters/gauges: per-tick deltas.  Histograms: per-frame samples.
  std::vector<double> deltas;
};

struct PostmortemTsdb {
  TimeSeriesStore::MetaBlock meta{};
  std::vector<PostmortemSeries> series;
  std::uint64_t frames_decoded = 0;
  /// Frames skipped: checksum mismatch (crash mid-append) plus anything
  /// older — the backward delta chain stops at the first bad frame.
  std::uint64_t frames_torn = 0;
};

struct DumpImage {
  DumpHeader header{};
  // --- decoded rings (publication order, oldest first) ---------------------
  std::vector<SpanRecord> spans;
  std::uint64_t spans_torn = 0;
  std::vector<DecisionRecord> decisions;
  std::uint64_t decisions_torn = 0;
  // --- mirrors --------------------------------------------------------------
  ProfMirror prof{};
  bool has_prof = false;
  SloMirror slo{};
  bool has_slo = false;
  // --- time series ----------------------------------------------------------
  PostmortemTsdb tsdb;
  bool has_tsdb = false;
};

/// Decode a dump file.  False on any structural problem — `error` gets a
/// one-line reason (truncated file, bad magic, region out of bounds,
/// trailer mismatch...).  Torn slots/frames inside a structurally valid
/// dump are NOT errors; they are skipped and counted in the image.
[[nodiscard]] bool decode_dump(const std::string& path, DumpImage* image,
                               std::string* error);

/// Re-run the MAD/z-score detector over the reconstructed deltas with
/// the given thresholds (defaults match the live store's defaults).
[[nodiscard]] std::vector<AnomalyEvent> rescan_anomalies(
    const PostmortemTsdb& tsdb, const TsdbOptions& options = {});

}  // namespace hotc::obs
