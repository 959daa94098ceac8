// obs::SeqRing properties, each written once over the ring type and run
// for both rings built on it: the span FlightRecorder and the
// DecisionJournal (through its tick-audited append).
//
// The concurrent properties are the reason this binary carries the `tsan`
// ctest label: under -DHOTC_SANITIZE=thread they prove the publish
// protocol (ticket fetch_add + CAS slot claim + release-stored words)
// race-free, and the payload invariant check proves readers never observe
// a torn record even while writers lap the ring.
#include "obs/seq_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace hotc::obs {
namespace {

// Every test record derives its payload words from one id, so a torn
// read (a mix of two writers' words surviving validation) breaks the
// invariant whole() checks.
constexpr std::uint64_t kMix = 2654435761u;

template <class Ring>
struct RingTraits;

template <>
struct RingTraits<FlightRecorder> {
  static FlightRecorder make(std::size_t capacity) {
    return FlightRecorder(capacity);
  }
  static void put(FlightRecorder& ring, std::uint64_t id) {
    SpanRecord rec;
    rec.trace_id = id;
    rec.key_hash = id * kMix;
    rec.start_ns = static_cast<std::int64_t>(id & 0x7fffffff);
    rec.dur_ns = 1;
    rec.stage = Stage::kExec;
    rec.shard = static_cast<std::uint16_t>(id >> 32);
    ring.record(rec);
  }
  static std::uint64_t id(const SpanRecord& rec) { return rec.trace_id; }
  static bool whole(const SpanRecord& rec) {
    return rec.key_hash == rec.trace_id * kMix &&
           rec.start_ns ==
               static_cast<std::int64_t>(rec.trace_id & 0x7fffffff) &&
           rec.shard == static_cast<std::uint16_t>(rec.trace_id >> 32);
  }
};

template <>
struct RingTraits<DecisionJournal> {
  static DecisionJournal make(std::size_t capacity) {
    return DecisionJournal(capacity, /*audit=*/false);
  }
  // One tick for every record: concurrent appends of the same tick are
  // what the tick audit admits.
  static void put(DecisionJournal& journal, std::uint64_t id) {
    DecisionRecord rec;
    rec.tick = 1;
    rec.key_hash = id;
    rec.key_id = static_cast<std::uint32_t>(id * kMix);
    rec.demand = static_cast<double>(id & 0xfffff);
    rec.have = static_cast<std::uint16_t>(id >> 32);
    journal.append(rec);
  }
  static std::uint64_t id(const DecisionRecord& rec) { return rec.key_hash; }
  static bool whole(const DecisionRecord& rec) {
    return rec.tick == 1 &&
           rec.key_id == static_cast<std::uint32_t>(rec.key_hash * kMix) &&
           rec.demand == static_cast<double>(rec.key_hash & 0xfffff) &&
           rec.have == static_cast<std::uint16_t>(rec.key_hash >> 32);
  }
};

template <class Ring>
void hammer(Ring& ring, std::uint64_t writer, int records) {
  for (int i = 0; i < records; ++i) {
    RingTraits<Ring>::put(ring,
                          (writer << 32) | static_cast<std::uint64_t>(i));
  }
}

template <class Ring, class Record>
void check_no_torn_records(const std::vector<Record>& records) {
  for (const Record& rec : records) {
    ASSERT_TRUE(RingTraits<Ring>::whole(rec))
        << "torn record: id " << RingTraits<Ring>::id(rec);
  }
}

// --- the properties ----------------------------------------------------------

template <class Ring>
void capacity_rounds_up_to_power_of_two() {
  EXPECT_EQ(RingTraits<Ring>::make(0).capacity(), 2u);
  EXPECT_EQ(RingTraits<Ring>::make(1).capacity(), 2u);
  EXPECT_EQ(RingTraits<Ring>::make(5).capacity(), 8u);
  EXPECT_EQ(RingTraits<Ring>::make(8).capacity(), 8u);
  EXPECT_EQ(RingTraits<Ring>::make(1000).capacity(), 1024u);
}

template <class Ring>
void snapshot_is_oldest_first() {
  Ring ring = RingTraits<Ring>::make(8);
  for (std::uint64_t i = 1; i <= 5; ++i) RingTraits<Ring>::put(ring, i);
  const auto got = ring.snapshot();
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(RingTraits<Ring>::id(got[i]), i + 1);
  }
}

template <class Ring>
void wraparound_keeps_the_last_capacity_records() {
  Ring ring = RingTraits<Ring>::make(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 1; i <= 20; ++i) RingTraits<Ring>::put(ring, i);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto got = ring.snapshot();
  ASSERT_EQ(got.size(), 8u);
  // Oldest survivor is #13: 20 - 8 + 1.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(RingTraits<Ring>::id(got[i]), 13 + i);
  }
}

template <class Ring>
void many_wraps_stay_consistent() {
  Ring ring = RingTraits<Ring>::make(4);
  for (std::uint64_t i = 1; i <= 1003; ++i) RingTraits<Ring>::put(ring, i);
  const auto got = ring.snapshot();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(RingTraits<Ring>::id(got.front()), 1000u);
  EXPECT_EQ(RingTraits<Ring>::id(got.back()), 1003u);
}

template <class Ring>
void tail_returns_newest_n() {
  Ring ring = RingTraits<Ring>::make(16);
  for (std::uint64_t i = 1; i <= 10; ++i) RingTraits<Ring>::put(ring, i);
  const auto t3 = ring.tail(3);
  ASSERT_EQ(t3.size(), 3u);
  EXPECT_EQ(RingTraits<Ring>::id(t3[0]), 8u);
  EXPECT_EQ(RingTraits<Ring>::id(t3[2]), 10u);
  EXPECT_EQ(ring.tail(100).size(), 10u);
}

template <class Ring>
void concurrent_writers_never_tear_records() {
  Ring ring = RingTraits<Ring>::make(64);  // writers lap it constantly
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] { hammer(ring, w + 1, kPerWriter); });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  const auto got = ring.snapshot();
  EXPECT_LE(got.size(), ring.capacity());
  EXPECT_FALSE(got.empty());
  check_no_torn_records<Ring>(got);
  // Drops happen only under lapping, which this test does not force.
  EXPECT_LE(ring.dropped(), ring.recorded());
}

// A stalled writer that was lapped abandons its slot and counts a drop.
// The drop counter feeds hotc_trace_dropped_total and the
// trace_drop_ratio SLO, so it must read as a well-formed counter:
// non-decreasing across polls and never above recorded().  (Whether any
// drop happens is scheduler luck, not gated.)
template <class Ring>
void dropped_is_monotone_under_lapping() {
  Ring ring = RingTraits<Ring>::make(4);
  std::atomic<bool> stop{false};
  std::thread poller([&ring, &stop] {
    std::uint64_t last_dropped = 0;
    std::uint64_t last_recorded = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t dropped = ring.dropped();
      const std::uint64_t recorded = ring.recorded();
      ASSERT_GE(dropped, last_dropped);
      ASSERT_GE(recorded, last_recorded);
      last_dropped = dropped;
      last_recorded = recorded;
    }
  });
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < 3; ++w) {
    writers.emplace_back([&ring, w] { hammer(ring, w + 1, 30000); });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(ring.recorded(), 90000u);
  EXPECT_LE(ring.dropped(), ring.recorded());
}

template <class Ring>
void concurrent_readers_see_only_whole_records() {
  Ring ring = RingTraits<Ring>::make(32);
  std::atomic<bool> stop{false};
  std::thread reader([&ring, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      check_no_torn_records<Ring>(ring.snapshot());
    }
    check_no_torn_records<Ring>(ring.snapshot());
  });
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < 3; ++w) {
    writers.emplace_back([&ring, w] { hammer(ring, w + 1, 30000); });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.recorded(), 90000u);
}

// Each property runs once per ring, as a plain TEST under that ring's
// suite name, so every test id names the ring it checks.
#define HOTC_RING_PROPERTY(property, span_test, decision_test)         \
  TEST(FlightRecorder, span_test) { property<FlightRecorder>(); }      \
  TEST(DecisionJournal, decision_test) { property<DecisionJournal>(); }

HOTC_RING_PROPERTY(capacity_rounds_up_to_power_of_two,
                   CapacityRoundsUpToPowerOfTwo, CapacityRoundsUpToPowerOfTwo)
HOTC_RING_PROPERTY(snapshot_is_oldest_first, SnapshotReturnsSpansOldestFirst,
                   SnapshotReturnsRecordsOldestFirst)
HOTC_RING_PROPERTY(wraparound_keeps_the_last_capacity_records,
                   WraparoundKeepsOnlyTheLastCapacitySpans,
                   WrapKeepsNewestRecords)
HOTC_RING_PROPERTY(many_wraps_stay_consistent, ManyWrapsStayConsistent,
                   ManyWrapsStayConsistent)
HOTC_RING_PROPERTY(tail_returns_newest_n, TailReturnsNewestN,
                   TailReturnsNewestN)
HOTC_RING_PROPERTY(concurrent_writers_never_tear_records,
                   ConcurrentWritersNeverTearRecords,
                   ConcurrentWritersNeverTearRecords)
HOTC_RING_PROPERTY(dropped_is_monotone_under_lapping,
                   DroppedIsMonotoneUnderLapping,
                   DroppedIsMonotoneUnderLapping)
HOTC_RING_PROPERTY(concurrent_readers_see_only_whole_records,
                   ConcurrentReadersSeeOnlyWholeRecords,
                   ConcurrentReadersSeeOnlyWholeRecords)

#undef HOTC_RING_PROPERTY

// --- the span codec ----------------------------------------------------------

TEST(FlightRecorder, CodecRoundTripsEveryFieldAndStampsTheTicket) {
  FlightRecorder ring(8);
  SpanRecord rec;
  rec.trace_id = 0xdeadbeefcafef00dull;
  rec.key_hash = 0x0123456789abcdefull;
  rec.start_ns = -5;
  rec.dur_ns = 1234567;
  rec.span_seq = 999;  // overwritten with the publication ticket
  rec.shard = 513;
  rec.stage = Stage::kCheckpoint;
  rec.flags = kSpanCold | kSpanError;
  ring.record(rec);
  ring.record(rec);

  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& got = spans[i];
    EXPECT_EQ(got.span_seq, i);
    EXPECT_EQ(got.trace_id, rec.trace_id);
    EXPECT_EQ(got.key_hash, rec.key_hash);
    EXPECT_EQ(got.start_ns, rec.start_ns);
    EXPECT_EQ(got.dur_ns, rec.dur_ns);
    EXPECT_EQ(got.shard, rec.shard);
    EXPECT_EQ(got.stage, rec.stage);
    EXPECT_EQ(got.flags, rec.flags);
  }
}

// --- the tracer facade -------------------------------------------------------

TEST(Tracer, DisabledSpanIsANoOp) {
  Tracer tracer(16);
  tracer.set_enabled(false);
  tracer.span(1, Stage::kExec, seconds(1), milliseconds(5));
  EXPECT_EQ(tracer.recorder().recorded(), 0u);
  tracer.set_enabled(true);
  tracer.span(1, Stage::kExec, seconds(1), milliseconds(5));
  EXPECT_EQ(tracer.recorder().recorded(), 1u);
}

TEST(Tracer, FeedsStageHistogramsForTimedSpansOnly) {
  Registry reg;
  Tracer tracer(16, &reg);
  tracer.span(1, Stage::kExec, seconds(1), milliseconds(5));
  tracer.span(1, Stage::kPoolLookup, seconds(1), kZeroDuration);  // marker
  for (const auto& s : reg.snapshot()) {
    // The tracer also registers hotc_trace_recorded/dropped_total.
    if (s.name != "hotc_stage_duration_ms") continue;
    if (s.labels == "stage=\"exec\"") {
      EXPECT_EQ(s.histogram.total, 1u);
      EXPECT_DOUBLE_EQ(s.histogram.sum, 5.0);
    } else {
      // Instant markers contribute no duration sample.
      EXPECT_EQ(s.histogram.total, 0u);
    }
  }
}

TEST(Tracer, NextTraceIdIsUniqueAndNonZero) {
  Tracer tracer(16);
  const auto a = tracer.next_trace_id();
  const auto b = tracer.next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace hotc::obs
