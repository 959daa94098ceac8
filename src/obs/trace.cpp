#include "obs/trace.hpp"

#include <algorithm>

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

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))) {
  mask_ = slots_.size() - 1;
  while ((std::size_t{1} << shift_) < slots_.size()) ++shift_;
}

SpanRecord FlightRecorder::unpack(const Slot& slot) {
  SpanRecord rec;
  // Acquire loads pair with the release stores in pack(): reading any
  // word of an in-progress overwrite forces the subsequent seq re-read
  // to see that writer's odd sequence and discard the slot.
  rec.trace_id = slot.words[0].load(std::memory_order_acquire);
  rec.key_hash = slot.words[1].load(std::memory_order_acquire);
  rec.start_ns = static_cast<std::int64_t>(
      slot.words[2].load(std::memory_order_acquire));
  rec.dur_ns = static_cast<std::int64_t>(
      slot.words[3].load(std::memory_order_acquire));
  const std::uint64_t meta = slot.words[4].load(std::memory_order_acquire);
  rec.span_seq = static_cast<std::uint32_t>(meta >> 32);
  rec.shard = static_cast<std::uint16_t>((meta >> 16) & 0xffff);
  rec.stage = static_cast<Stage>((meta >> 8) & 0xff);
  rec.flags = static_cast<std::uint8_t>(meta & 0xff);
  return rec;
}

std::vector<SpanRecord> FlightRecorder::snapshot() const {
  struct Ordered {
    std::uint64_t ticket;
    SpanRecord rec;
  };
  std::vector<Ordered> collected;
  collected.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 == 0 || (seq1 & 1) != 0) continue;  // empty or mid-write
    SpanRecord rec = unpack(slot);
    // Validate: unchanged sequence means the words above belong to one
    // complete write of cycle (seq1 - 2) / 2.
    if (slot.seq.load(std::memory_order_acquire) != seq1) continue;
    const std::uint64_t cycle = (seq1 - 2) / 2;
    collected.push_back({(cycle << shift_) + i, rec});
  }
  std::sort(collected.begin(), collected.end(),
            [](const Ordered& a, const Ordered& b) {
              return a.ticket < b.ticket;
            });
  std::vector<SpanRecord> out;
  out.reserve(collected.size());
  for (const Ordered& o : collected) out.push_back(o.rec);
  return out;
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
    recorded_counter_ = &registry_->counter(
        "hotc_trace_recorded_total", "Spans published to the flight ring");
    dropped_counter_ = &registry_->counter(
        "hotc_trace_dropped_total",
        "Spans dropped because a writer of another ring cycle held their slot");
  }
}

void Tracer::sync_trace_counters() {
  if (recorded_counter_ == nullptr) return;
  const std::uint64_t recorded = ring_.recorded();
  const std::uint64_t dropped = ring_.dropped();
  if (recorded > recorded_synced_) {
    recorded_counter_->inc(recorded - recorded_synced_);
    recorded_synced_ = recorded;
  }
  if (dropped > dropped_synced_) {
    dropped_counter_->inc(dropped - dropped_synced_);
    dropped_synced_ = dropped;
  }
}

}  // namespace hotc::obs
