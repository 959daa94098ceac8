#include "obs/blackbox.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace hotc::obs {
namespace {

std::string temp_dump_path(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "hotc_bb_" + info->test_suite_name() + "_" +
         info->name() + "_" + tag + ".dump";
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spew(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte offset of region `kind`'s header inside a dump (0 = absent).
std::size_t find_region(const std::vector<char>& bytes, std::uint32_t kind) {
  std::size_t off = sizeof(DumpHeader);
  RegionHeader rh;
  while (off + sizeof(rh) <= bytes.size()) {
    std::memcpy(&rh, bytes.data() + off, sizeof(rh));
    if (rh.kind == kind) return off;
    off += sizeof(rh) + rh.bytes;
  }
  return 0;
}

RegionHeader region_at(const std::vector<char>& bytes, std::size_t off) {
  RegionHeader rh;
  std::memcpy(&rh, bytes.data() + off, sizeof(rh));
  return rh;
}

/// Full observability stack with deterministic traffic, wired to a
/// BlackBox at a per-test temp path.
struct CrashHarness {
  Registry registry;
  FlightRecorder tracer;
  DecisionJournal journal;
  SloEngine slo;
  Counter& reqs;
  TimeSeriesStore tsdb;
  std::string path;
  BlackBox box;

  CrashHarness()
      : tracer(256),
        journal(64),
        slo(registry, default_slos()),
        reqs(registry.counter("hotc_test_bb_total", "bb")),
        tsdb(registry, TsdbOptions{}, &slo),
        path(temp_dump_path("main")),
        box(path) {
    box.attach_ring(kRegionFlightRing, "flight_ring", tracer.raw_ring());
    box.attach_ring(kRegionJournalRing, "journal_ring", journal.raw_ring());
    box.attach_tsdb(tsdb);
  }

  ~CrashHarness() { std::remove(path.c_str()); }

  void traffic(std::uint64_t ticks) {
    for (std::uint64_t t = 1; t <= ticks; ++t) {
      SpanRecord span;
      span.trace_id = 0x1000 + t;
      span.key_hash = 0xabcd;
      span.start_ns = static_cast<std::int64_t>(t) * 1000;
      span.dur_ns = 500;
      tracer.record(span);

      DecisionRecord rec;
      rec.tick = t;
      rec.key_hash = 0xabcd;
      rec.demand = 2.0;
      journal.append(rec);

      reqs.inc(10 + t % 3);
      tsdb.sample(t);
      box.note_tick(t);
    }
  }
};

TEST(BlackBox, DumpDecodesBackToLiveState) {
  CrashHarness h;
  ASSERT_TRUE(h.box.ok());
  h.traffic(12);

  ASSERT_TRUE(h.box.dump_now(0, "test", "deliberate dump"));
  EXPECT_TRUE(h.box.dumped());

  DumpImage image;
  std::string error;
  ASSERT_TRUE(decode_dump(h.path, &image, &error)) << error;

  EXPECT_EQ(image.header.version, kDumpVersion);
  EXPECT_EQ(image.header.signal, 0);
  EXPECT_EQ(image.header.tick, 12u);
  EXPECT_NE(std::string(image.header.reason).find("test"),
            std::string::npos);
  EXPECT_NE(std::string(image.header.reason).find("deliberate dump"),
            std::string::npos);

  // Rings decode in publication order with nothing torn (no crash here).
  ASSERT_EQ(image.spans.size(), 12u);
  EXPECT_EQ(image.spans_torn, 0u);
  EXPECT_EQ(image.spans.front().trace_id, 0x1001u);
  EXPECT_EQ(image.spans.back().trace_id, 0x100cu);
  ASSERT_EQ(image.decisions.size(), 12u);
  EXPECT_EQ(image.decisions_torn, 0u);
  EXPECT_EQ(image.decisions.back().tick, 12u);

  // TSDB regions reconstruct the counter exactly as the live store would.
  ASSERT_TRUE(image.has_tsdb);
  EXPECT_EQ(image.tsdb.frames_torn, 0u);
  EXPECT_EQ(image.tsdb.frames_decoded, 12u);
  const PostmortemSeries* found = nullptr;
  for (const auto& s : image.tsdb.series) {
    if (s.name == "hotc_test_bb_total") found = &s;
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->ticks.size(), 12u);
  const auto live = h.tsdb.range("hotc_test_bb_total", "");
  ASSERT_EQ(live.size(), 12u);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(found->ticks[i], live[i].tick);
    EXPECT_DOUBLE_EQ(found->values[i], live[i].value);
  }
}

TEST(BlackBox, DumpIsOneShot) {
  CrashHarness h;
  h.traffic(3);
  ASSERT_TRUE(h.box.dump_now(0, "test", "first"));
  EXPECT_FALSE(h.box.dump_now(0, "test", "second"));
  EXPECT_FALSE(h.box.dump_now(11, "test", "third"));

  DumpImage image;
  std::string error;
  ASSERT_TRUE(decode_dump(h.path, &image, &error)) << error;
  EXPECT_NE(std::string(image.header.reason).find("first"),
            std::string::npos);
}

TEST(BlackBox, MirrorsCarrySloState) {
  CrashHarness h;
  h.traffic(5);
  h.box.update_slo_mirror(h.slo.status(), h.slo.alerts_fired());
  ASSERT_TRUE(h.box.dump_now(0, "test", "mirrors"));

  DumpImage image;
  std::string error;
  ASSERT_TRUE(decode_dump(h.path, &image, &error)) << error;
  ASSERT_TRUE(image.has_slo);
  EXPECT_EQ(image.slo.series_count, h.slo.status().size());
}

TEST(BlackBox, RejectsTruncatedDump) {
  CrashHarness h;
  h.traffic(6);
  ASSERT_TRUE(h.box.dump_now(0, "test", "to truncate"));

  std::vector<char> bytes = slurp(h.path);
  ASSERT_GT(bytes.size(), 64u);
  const std::string cut = temp_dump_path("cut");
  bytes.resize(bytes.size() - 64);
  spew(cut, bytes);

  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(cut, &image, &error));
  EXPECT_FALSE(error.empty());
  std::remove(cut.c_str());
}

TEST(BlackBox, RejectsBadMagic) {
  CrashHarness h;
  h.traffic(2);
  ASSERT_TRUE(h.box.dump_now(0, "test", "to corrupt"));

  std::vector<char> bytes = slurp(h.path);
  ASSERT_GT(bytes.size(), 8u);
  bytes[0] = 'X';
  const std::string bad = temp_dump_path("bad");
  spew(bad, bytes);

  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(bad, &image, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
  std::remove(bad.c_str());
}

TEST(BlackBox, RingGeometryIsPinned) {
  // Dumps from earlier builds stay decodable only while the slot layout
  // holds: params {capacity, log2 capacity, payload words, slot stride}.
  CrashHarness h;
  h.traffic(3);
  ASSERT_TRUE(h.box.dump_now(0, "test", "geometry"));
  const std::vector<char> bytes = slurp(h.path);

  const std::size_t flight_at = find_region(bytes, kRegionFlightRing);
  ASSERT_NE(flight_at, 0u);
  const RegionHeader flight = region_at(bytes, flight_at);
  EXPECT_EQ(flight.params[0], 256u);
  EXPECT_EQ(flight.params[1], 8u);
  EXPECT_EQ(flight.params[2], 5u);
  EXPECT_EQ(flight.params[3], 64u);
  EXPECT_EQ(flight.bytes, 256u * 64u);

  const std::size_t journal_at = find_region(bytes, kRegionJournalRing);
  ASSERT_NE(journal_at, 0u);
  const RegionHeader journal = region_at(bytes, journal_at);
  EXPECT_EQ(journal.params[0], 64u);
  EXPECT_EQ(journal.params[1], 6u);
  EXPECT_EQ(journal.params[2], 8u);
  EXPECT_EQ(journal.params[3], 128u);
  EXPECT_EQ(journal.bytes, 64u * 128u);
}

TEST(BlackBox, HostileRingGeometryDecodesAsEmpty) {
  // The ring geometry comes from the file; none of these may be trusted
  // to index the region.
  const std::uint64_t kHostile[][4] = {
      {1ull << 33, 33, 5, 1ull << 31},  // capacity * stride wraps to 0
      {256, 64, 5, 64},                 // shift past the word
      {256, 7, 5, 64},                  // capacity != 1 << shift
      {256, 8, 5, 40},                  // stride shorter than a slot
      {256, 8, 8, 64},                  // another record's word count
      {512, 9, 5, 64},                  // more slots than the region holds
  };
  CrashHarness h;
  h.traffic(12);
  ASSERT_TRUE(h.box.dump_now(0, "test", "to corrupt"));
  const std::vector<char> good = slurp(h.path);
  const std::size_t at = find_region(good, kRegionFlightRing);
  ASSERT_NE(at, 0u);
  const std::string bad = temp_dump_path("geometry");
  for (const auto& params : kHostile) {
    std::vector<char> bytes = good;
    RegionHeader rh = region_at(bytes, at);
    std::memcpy(rh.params, params, sizeof(rh.params));
    std::memcpy(bytes.data() + at, &rh, sizeof(rh));
    spew(bad, bytes);

    DumpImage image;
    std::string error;
    ASSERT_TRUE(decode_dump(bad, &image, &error)) << error;
    EXPECT_TRUE(image.spans.empty()) << "capacity " << params[0];
    EXPECT_EQ(image.decisions.size(), 12u);  // its own region is intact
  }
  std::remove(bad.c_str());
}

TEST(BlackBox, RejectsWrappingRegionLength) {
  CrashHarness h;
  h.traffic(2);
  ASSERT_TRUE(h.box.dump_now(0, "test", "to corrupt"));
  std::vector<char> bytes = slurp(h.path);
  const std::size_t at = find_region(bytes, kRegionFlightRing);
  ASSERT_NE(at, 0u);
  // offset + length wraps back to this region's own header.
  RegionHeader rh = region_at(bytes, at);
  rh.bytes = ~std::uint64_t{0} - sizeof(RegionHeader) + 1;
  std::memcpy(bytes.data() + at, &rh, sizeof(rh));
  const std::string bad = temp_dump_path("length");
  spew(bad, bytes);

  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(bad, &image, &error));
  EXPECT_NE(error.find("past end of file"), std::string::npos) << error;
  std::remove(bad.c_str());
}

TEST(BlackBox, RejectsMissingFile) {
  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(::testing::TempDir() + "hotc_bb_nonexistent.dump",
                           &image, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BlackBox, BadPathDegradesToNoop) {
  BlackBox box("/nonexistent-dir/sub/OBS_blackbox.dump");
  EXPECT_FALSE(box.ok());
  EXPECT_FALSE(box.dump_now(0, "test", "no fd"));
}

}  // namespace
}  // namespace hotc::obs
