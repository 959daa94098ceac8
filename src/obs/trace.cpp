#include "obs/trace.hpp"

namespace hotc::obs {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kForward: return "forward";
    case Stage::kParse: return "parse";
    case Stage::kPoolLookup: return "pool_lookup";
    case Stage::kColdStart: return "cold_start";
    case Stage::kReuse: return "reuse";
    case Stage::kResume: return "resume";
    case Stage::kRestore: return "restore";
    case Stage::kExec: return "exec";
    case Stage::kClean: return "clean";
    case Stage::kReadmit: return "readmit";
    case Stage::kReturn: return "return";
    case Stage::kPrewarm: return "prewarm";
    case Stage::kEvict: return "evict";
    case Stage::kRoute: return "route";
    case Stage::kDonorLookup: return "donor_lookup";
    case Stage::kRespecialize: return "respecialize";
    case Stage::kDriftRestart: return "drift_restart";
    case Stage::kCheckpoint: return "checkpoint";
  }
  return "?";
}

SpanRecord SpanRecord::from_words(
    const std::array<std::uint64_t, kWords>& w) {
  SpanRecord rec;
  rec.trace_id = w[0];
  rec.key_hash = w[1];
  rec.start_ns = static_cast<std::int64_t>(w[2]);
  rec.dur_ns = static_cast<std::int64_t>(w[3]);
  rec.span_seq = static_cast<std::uint32_t>(w[4] >> 32);
  rec.shard = static_cast<std::uint16_t>(w[4] >> 16);
  rec.stage = static_cast<Stage>((w[4] >> 8) & 0xff);
  rec.flags = static_cast<std::uint8_t>(w[4]);
  return rec;
}

Tracer::Tracer(std::size_t ring_capacity, Registry* registry)
    : ring_(ring_capacity), registry_(registry) {
  if (registry_ != nullptr) {
    for (int s = 0; s < kStageCount; ++s) {
      stage_hist_[s] = &registry_->histogram(
          "hotc_stage_duration_ms",
          "Per-stage request lifecycle latency (ms)",
          std::string("stage=\"") + to_string(static_cast<Stage>(s)) +
              "\"");
    }
    collection_ = registry_->collect([this](MetricSink& out) {
      out.counter("hotc_trace_recorded_total",
                  "Spans published to the flight ring",
                  static_cast<double>(ring_.recorded()));
      out.counter(
          "hotc_trace_dropped_total",
          "Spans dropped because a writer of another ring cycle held their "
          "slot",
          static_cast<double>(ring_.dropped()));
    });
  }
}

}  // namespace hotc::obs
