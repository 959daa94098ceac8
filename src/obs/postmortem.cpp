#include "obs/postmortem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>

namespace hotc::obs {

namespace {

struct RawRegionView {
  RegionHeader header;
  const std::uint8_t* data = nullptr;
};

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

/// Decode a SeqRing region through its record's codec.
template <class Record>
std::vector<Record> decode_ring(
    const std::map<std::uint32_t, RawRegionView>& regions,
    std::uint32_t kind, std::uint64_t* torn) {
  const auto it = regions.find(kind);
  if (it == regions.end()) return {};
  RawRing raw{it->second.data, it->second.header.bytes, {}};
  std::memcpy(raw.params, it->second.header.params, sizeof(raw.params));
  return SeqRing<Record>::decode(raw, torn);
}

/// Varint cursor over a decoded frame payload copy.
struct Cursor {
  const std::uint8_t* p;
  std::size_t avail;
  bool ok = true;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    const std::size_t n = TimeSeriesStore::decode_varint(p, avail, &v);
    if (n == 0) {
      ok = false;
      return 0;
    }
    p += n;
    avail -= n;
    return v;
  }

  double gauge_bits() {
    if (avail < 8) {
      ok = false;
      return 0.0;
    }
    double v = 0.0;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    std::memcpy(&v, &bits, sizeof(v));
    p += 8;
    avail -= 8;
    return v;
  }
};

void decode_tsdb(const std::map<std::uint32_t, RawRegionView>& regions,
                 PostmortemTsdb* out) {
  const auto meta_it = regions.find(kRegionTsdbMeta);
  const auto frames_it = regions.find(kRegionTsdbFrames);
  const auto series_it = regions.find(kRegionTsdbSeries);
  const auto names_it = regions.find(kRegionTsdbNames);
  const auto ring_it = regions.find(kRegionTsdbRing);
  if (meta_it == regions.end() || frames_it == regions.end() ||
      series_it == regions.end() || names_it == regions.end() ||
      ring_it == regions.end()) {
    return;
  }
  if (meta_it->second.header.bytes < sizeof(TimeSeriesStore::MetaBlock)) {
    return;
  }
  std::memcpy(&out->meta, meta_it->second.data, sizeof(out->meta));
  const TimeSeriesStore::MetaBlock& meta = out->meta;

  const std::uint64_t frame_capacity =
      frames_it->second.header.bytes / sizeof(TimeSeriesStore::FrameInfo);
  const std::uint64_t series_capacity =
      series_it->second.header.bytes / sizeof(TimeSeriesStore::SeriesInfo);
  const std::uint8_t* ring = ring_it->second.data;
  const std::uint64_t ring_bytes = ring_it->second.header.bytes;
  if (frame_capacity == 0 || ring_bytes == 0 ||
      meta.series_count > series_capacity ||
      meta.frame_count > frame_capacity) {
    return;  // meta torn beyond use
  }

  // Series table + names (bounds-checked per entry).
  std::vector<TimeSeriesStore::SeriesInfo> series(meta.series_count);
  std::memcpy(series.data(), series_it->second.data,
              meta.series_count * sizeof(TimeSeriesStore::SeriesInfo));
  out->series.resize(meta.series_count);
  for (std::size_t s = 0; s < series.size(); ++s) {
    PostmortemSeries& ps = out->series[s];
    ps.kind = series[s].kind;
    const std::uint64_t off = series[s].name_off;
    const std::uint64_t len = series[s].name_len;
    if (len > 0 && len <= names_it->second.header.bytes &&
        off <= names_it->second.header.bytes - len) {
      const char* entry =
          reinterpret_cast<const char*>(names_it->second.data) + off;
      const std::size_t sep = std::min<std::size_t>(series[s].sep, len);
      ps.name.assign(entry, sep);
      if (sep + 1 <= len) ps.labels.assign(entry + sep + 1, len - sep - 1);
    }
  }

  // Walk frames newest -> oldest, stopping at the first torn frame.
  // Collected newest-first: per series, the raw payload (counter dod /
  // gauge value) and, for histograms, the per-frame delta snapshot.
  struct RawPoint {
    std::uint64_t tick;
    double raw;
  };
  std::vector<std::vector<RawPoint>> raw(series.size());
  std::vector<std::vector<RawPoint>> hist_p99(series.size());
  std::vector<std::uint8_t> payload;
  bool torn = false;
  for (std::uint64_t i = meta.frame_count; i-- > 0 && !torn;) {
    const std::uint8_t* fp =
        frames_it->second.data +
        ((meta.frame_head + i) % frame_capacity) *
            sizeof(TimeSeriesStore::FrameInfo);
    TimeSeriesStore::FrameInfo f;
    std::memcpy(&f, fp, sizeof(f));
    if (f.len == 0 || f.len > ring_bytes || f.offset >= ring_bytes) {
      torn = true;
      break;
    }
    payload.resize(f.len);
    const std::size_t first =
        std::min<std::size_t>(f.len, ring_bytes - f.offset);
    std::memcpy(payload.data(), ring + f.offset, first);
    if (first < f.len) {
      std::memcpy(payload.data() + first, ring, f.len - first);
    }
    if (TimeSeriesStore::checksum(payload.data(), payload.size()) !=
        f.checksum) {
      torn = true;  // crash tore this append; older frames are unusable
      break;
    }
    Cursor c{payload.data(), payload.size()};
    const std::uint64_t entries = c.varint();
    for (std::uint64_t e = 0; e < entries && c.ok; ++e) {
      const std::uint64_t sid = c.varint();
      if (!c.ok || sid >= series.size()) {
        torn = true;
        break;
      }
      switch (series[sid].kind) {
        case TimeSeriesStore::kCounterSeries: {
          const std::uint64_t zz = c.varint();
          raw[sid].push_back(
              {f.tick,
               static_cast<double>(TimeSeriesStore::unzigzag(zz))});
          break;
        }
        case TimeSeriesStore::kGaugeSeries:
          raw[sid].push_back({f.tick, c.gauge_bits()});
          break;
        default: {  // histogram: sparse changed buckets
          const std::uint64_t changed = c.varint();
          HistogramSnapshot hs;
          hs.counts.assign(
              static_cast<std::size_t>(LogHistogram::kBuckets), 0);
          for (std::uint64_t b = 0; b < changed && c.ok; ++b) {
            const std::uint64_t idx = c.varint();
            const std::uint64_t delta = c.varint();
            if (!c.ok) break;
            if (idx < hs.counts.size()) {
              hs.counts[idx] += delta;
            } else if (idx == hs.counts.size()) {
              hs.underflow += delta;
            } else {
              hs.overflow += delta;
            }
            hs.total += delta;
          }
          hist_p99[sid].push_back({f.tick, hs.quantile(0.99)});
          raw[sid].push_back({f.tick, static_cast<double>(hs.total)});
          break;
        }
      }
    }
    if (!c.ok) torn = true;
    if (!torn) ++out->frames_decoded;
  }
  out->frames_torn = meta.frame_count - out->frames_decoded;

  // Invert the encoding per series from the table anchors (newest first):
  //   value[i-1] = value[i] - delta[i];  delta[i-1] = delta[i] - dod[i].
  for (std::size_t s = 0; s < series.size(); ++s) {
    PostmortemSeries& ps = out->series[s];
    const std::vector<RawPoint>& pts = raw[s];  // newest first
    const std::size_t n = pts.size();
    ps.ticks.resize(n);
    ps.values.resize(n);
    ps.deltas.resize(n);
    double v = series[s].last_value;
    double d = series[s].last_delta;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t o = n - 1 - i;
      ps.ticks[o] = pts[i].tick;
      switch (ps.kind) {
        case TimeSeriesStore::kCounterSeries:
          ps.values[o] = v;
          ps.deltas[o] = d;
          v -= d;
          d -= pts[i].raw;
          break;
        case TimeSeriesStore::kGaugeSeries:
          ps.values[o] = pts[i].raw;
          ps.deltas[o] = i + 1 < n ? pts[i].raw - pts[i + 1].raw : 0.0;
          break;
        default:
          ps.values[o] = hist_p99[s][i].raw;
          ps.deltas[o] = pts[i].raw;  // per-frame sample count
          break;
      }
    }
  }
}

}  // namespace

bool decode_dump(const std::string& path, DumpImage* image,
                 std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, "cannot open dump file: " + path);
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(fsize > 0 ? static_cast<std::size_t>(fsize)
                                            : 0);
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    return fail(error, "short read on dump file: " + path);
  }
  std::fclose(f);

  if (bytes.size() < sizeof(DumpHeader) + sizeof(DumpTrailer)) {
    return fail(error, "truncated dump: smaller than header + trailer");
  }
  DumpHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  if (std::memcmp(hdr.magic, kDumpMagic, sizeof(hdr.magic)) != 0) {
    return fail(error, "bad dump magic: not a hotc black-box file");
  }
  if (hdr.version != kDumpVersion) {
    return fail(error,
                "unsupported dump version " + std::to_string(hdr.version));
  }
  image->header = hdr;

  std::map<std::uint32_t, RawRegionView> regions;
  std::size_t off = sizeof(DumpHeader);
  for (std::uint32_t i = 0; i < hdr.region_count; ++i) {
    if (off + sizeof(RegionHeader) > bytes.size()) {
      return fail(error, "truncated dump: region header " +
                             std::to_string(i) + " past end of file");
    }
    RawRegionView view;
    std::memcpy(&view.header, bytes.data() + off, sizeof(RegionHeader));
    if (std::memcmp(view.header.magic, kRegionMagic,
                    sizeof(view.header.magic)) != 0) {
      return fail(error,
                  "corrupted dump: bad region magic at region " +
                      std::to_string(i));
    }
    off += sizeof(RegionHeader);
    if (view.header.bytes > bytes.size() - off) {
      return fail(error, "truncated dump: region '" +
                             std::string(view.header.name,
                                         strnlen(view.header.name,
                                                 sizeof(view.header.name))) +
                             "' payload past end of file");
    }
    view.data = bytes.data() + off;
    off += static_cast<std::size_t>(view.header.bytes);
    regions[view.header.kind] = view;
  }
  if (off + sizeof(DumpTrailer) > bytes.size()) {
    return fail(error, "truncated dump: missing trailer");
  }
  DumpTrailer tr;
  std::memcpy(&tr, bytes.data() + off, sizeof(tr));
  if (std::memcmp(tr.magic, kTrailerMagic, sizeof(tr.magic)) != 0) {
    return fail(error, "corrupted dump: bad trailer magic");
  }
  if (tr.region_count != hdr.region_count) {
    return fail(error, "corrupted dump: trailer region count mismatch");
  }
  if (tr.total_bytes != off + sizeof(DumpTrailer)) {
    return fail(error, "corrupted dump: trailer byte count mismatch");
  }

  // --- rings ---------------------------------------------------------------
  image->spans =
      decode_ring<SpanRecord>(regions, kRegionFlightRing, &image->spans_torn);
  image->decisions = decode_ring<DecisionRecord>(regions, kRegionJournalRing,
                                                 &image->decisions_torn);

  // --- mirrors -------------------------------------------------------------
  if (const auto it = regions.find(kRegionProfMirror);
      it != regions.end() && it->second.header.bytes >= sizeof(ProfMirror)) {
    std::memcpy(&image->prof, it->second.data, sizeof(ProfMirror));
    image->has_prof = true;
  }
  if (const auto it = regions.find(kRegionSloMirror);
      it != regions.end() && it->second.header.bytes >= sizeof(SloMirror)) {
    std::memcpy(&image->slo, it->second.data, sizeof(SloMirror));
    image->has_slo = true;
  }

  // --- time series ---------------------------------------------------------
  if (regions.count(kRegionTsdbMeta) != 0) {
    decode_tsdb(regions, &image->tsdb);
    image->has_tsdb = true;
  }
  return true;
}

std::vector<AnomalyEvent> rescan_anomalies(const PostmortemTsdb& tsdb,
                                           const TsdbOptions& options) {
  std::vector<AnomalyEvent> out;
  std::deque<double> window;
  for (const PostmortemSeries& s : tsdb.series) {
    if (s.kind == TimeSeriesStore::kHistogramSeries) continue;
    window.clear();
    std::uint64_t cooldown_until = 0;
    bool seeded = false;
    for (std::size_t i = 0; i < s.deltas.size(); ++i) {
      const double delta = s.deltas[i];
      if (!seeded) {
        // Mirror the live detector: the first observation's delta is
        // the absolute starting value, neither judged nor remembered.
        seeded = true;
        continue;
      }
      const std::uint64_t tick = s.ticks[i];
      if (window.size() >= options.anomaly_min_history &&
          tick >= cooldown_until) {
        std::vector<double> flat(window.begin(), window.end());
        double median = 0.0;
        const double z = TimeSeriesStore::robust_zscore(
            flat.data(), flat.size(), delta, &median);
        if (z >= options.anomaly_threshold &&
            std::abs(delta - median) >=
                TimeSeriesStore::anomaly_floor(options, median)) {
          cooldown_until = tick + options.anomaly_cooldown;
          AnomalyEvent ev;
          ev.tick = tick;
          ev.series = s.name;
          ev.labels = s.labels;
          ev.zscore = z;
          ev.delta = delta;
          ev.median = median;
          out.push_back(std::move(ev));
        }
      }
      window.push_back(delta);
      while (window.size() > options.anomaly_window) window.pop_front();
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AnomalyEvent& a, const AnomalyEvent& b) {
              return a.tick < b.tick;
            });
  return out;
}

}  // namespace hotc::obs
