#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "predict/hybrid.hpp"

namespace hotc::obs {
namespace {

DecisionRecord record(std::uint64_t tick, std::uint64_t key = 1) {
  DecisionRecord r;
  r.tick = tick;
  r.key_hash = key;
  return r;
}

// --- decide_tick: the shared pure decision -----------------------------------

TEST(DecideTick, PrewarmsTowardCeilOfForecast) {
  TickInputs in;
  in.forecast = 4.2;  // target ceil -> 5
  in.have = 2;
  in.headroom = 100;
  const auto d = decide_tick(in);
  EXPECT_EQ(d.prewarms, 3u);
  EXPECT_EQ(d.retires, 0u);
}

TEST(DecideTick, PrewarmClampedByHeadroom) {
  TickInputs in;
  in.forecast = 50.0;
  in.have = 10;
  in.headroom = 7;
  EXPECT_EQ(decide_tick(in).prewarms, 7u);
}

TEST(DecideTick, RetiresSurplusBoundedByIdle) {
  TickInputs in;
  in.forecast = 2.0;
  in.have = 8;       // surplus 6 ...
  in.available = 4;  // ... but only 4 idle
  const auto d = decide_tick(in);
  EXPECT_EQ(d.retires, 4u);
  EXPECT_EQ(d.prewarms, 0u);
}

TEST(DecideTick, SharingKeepsOneBehindAndNominates) {
  TickInputs in;
  in.forecast = 2.0;
  in.have = 8;
  in.available = 4;
  in.sharing_enabled = true;
  const auto d = decide_tick(in);
  EXPECT_EQ(d.retires, 3u);  // one spared for a sibling conversion
  EXPECT_TRUE(d.nominate_donor);
}

TEST(DecideTick, MutedKeyNeverNominates) {
  TickInputs in;
  in.forecast = 2.0;
  in.have = 8;
  in.available = 4;
  in.sharing_enabled = true;
  in.donation_muted = true;
  EXPECT_FALSE(decide_tick(in).nominate_donor);
  // The retire path is unaffected by the mute (still spares one).
  EXPECT_EQ(decide_tick(in).retires, 3u);
}

TEST(DecideTick, DisabledKnobsAreInert) {
  TickInputs grow;
  grow.forecast = 9.0;
  grow.have = 1;
  grow.headroom = 50;
  grow.prewarm_enabled = false;
  EXPECT_EQ(decide_tick(grow).prewarms, 0u);

  TickInputs shrink;
  shrink.forecast = 0.0;
  shrink.have = 5;
  shrink.available = 5;
  shrink.retire_enabled = false;
  EXPECT_EQ(decide_tick(shrink).retires, 0u);
}

// --- codec and tick audit (ring properties: test_seq_ring.cpp) ---------------

TEST(DecisionJournal, PackUnpackRoundTripsEveryField) {
  DecisionJournal j(8, /*audit=*/false);
  DecisionRecord r;
  r.tick = 42;
  r.key_hash = 0xdeadbeefcafef00dull;
  r.demand = 7.25;
  r.smoothed = 6.875;
  r.forecast = 0.1;  // not exactly representable: bit fidelity matters
  r.markov_region = -1;
  r.have = 65535;
  r.available = 12345;
  r.headroom = 1;
  r.prewarms = 3;
  r.retires = 65000;
  r.evictions = 7;
  r.donations = 2;
  r.flags = kJournalDriftRestart | kJournalDonorNominated;
  j.append(r);

  const auto snap = j.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const auto& got = snap[0];
  EXPECT_EQ(got.tick, r.tick);
  EXPECT_EQ(got.key_hash, r.key_hash);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.demand),
            std::bit_cast<std::uint64_t>(r.demand));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.smoothed),
            std::bit_cast<std::uint64_t>(r.smoothed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.forecast),
            std::bit_cast<std::uint64_t>(r.forecast));
  EXPECT_EQ(got.markov_region, r.markov_region);
  EXPECT_EQ(got.have, r.have);
  EXPECT_EQ(got.available, r.available);
  EXPECT_EQ(got.headroom, r.headroom);
  EXPECT_EQ(got.prewarms, r.prewarms);
  EXPECT_EQ(got.retires, r.retires);
  EXPECT_EQ(got.evictions, r.evictions);
  EXPECT_EQ(got.donations, r.donations);
  EXPECT_EQ(got.flags, r.flags);
}

TEST(DecisionJournal, OutOfBandTickRejectedWithoutAudit) {
  DecisionJournal j(8, /*audit=*/false);
  j.append(record(5));
  j.append(record(5));  // same tick: fine (per-key records of one pass)
  j.append(record(3));  // regression: dropped + counted
  j.append(record(0));  // tick 0 is never valid
  EXPECT_EQ(j.rejected(), 2u);
  EXPECT_EQ(j.last_tick(), 5u);
  EXPECT_EQ(j.snapshot().size(), 2u);
}

using DecisionJournalDeathTest = ::testing::Test;

TEST(DecisionJournalDeathTest, OutOfBandTickAbortsUnderAudit) {
  ASSERT_DEATH(
      {
        DecisionJournal j(8, /*audit=*/true);
        j.append(record(5));
        j.append(record(3));
      },
      "out-of-band tick");
}

// --- replay ------------------------------------------------------------------

/// Journal a synthetic demand series through a real predictor exactly the
/// way the controller does (restart before observe on flagged ticks),
/// with decide_tick supplying the outputs.
std::vector<DecisionRecord> synthesize(
    const std::vector<double>& demand, std::size_t restart_at,
    const ReplayPolicy& policy, std::uint64_t key = 77) {
  predict::HybridPredictor p;
  std::vector<DecisionRecord> out;
  std::size_t have = 0;
  for (std::size_t t = 0; t < demand.size(); ++t) {
    DecisionRecord r;
    r.tick = t + 1;
    r.key_hash = key;
    if (t == restart_at) {
      p.restart_smoothing();
      r.flags |= kJournalDriftRestart;
    }
    p.observe(demand[t]);
    r.demand = demand[t];
    r.smoothed = p.smoothed_value();
    r.markov_region = static_cast<std::int8_t>(p.markov_region());
    r.forecast = std::max(0.0, p.predict());
    r.have = static_cast<std::uint16_t>(have);
    r.available = static_cast<std::uint16_t>(have);
    r.headroom = 100;
    TickInputs in;
    in.forecast = r.forecast;
    in.have = r.have;
    in.available = r.available;
    in.headroom = r.headroom;
    in.prewarm_enabled = policy.prewarm_enabled;
    in.retire_enabled = policy.retire_enabled;
    in.sharing_enabled = policy.sharing_enabled;
    const auto d = decide_tick(in);
    r.prewarms = static_cast<std::uint16_t>(d.prewarms);
    r.retires = static_cast<std::uint16_t>(d.retires);
    if (d.nominate_donor) r.flags |= kJournalDonorNominated;
    have += d.prewarms;
    have -= std::min<std::size_t>(have, d.retires);
    out.push_back(r);

    DecisionRecord summary;
    summary.tick = r.tick;
    summary.flags = kJournalSummary;
    summary.prewarms = r.prewarms;
    summary.retires = r.retires;
    out.push_back(summary);
  }
  return out;
}

TEST(ReplayJournal, BitIdenticalOnFaithfulTrace) {
  std::vector<double> demand;
  for (int t = 0; t < 40; ++t) demand.push_back(t < 20 ? 4.0 : 16.0);
  const auto records = synthesize(demand, /*restart_at=*/21, ReplayPolicy{});
  const auto result = replay_journal(
      records, [] { return std::make_unique<predict::HybridPredictor>(); });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.records_checked, records.size());
}

TEST(ReplayJournal, DetectsTamperedForecast) {
  std::vector<double> demand(20, 5.0);
  auto records = synthesize(demand, /*restart_at=*/99, ReplayPolicy{});
  records[10].forecast += 0.5;  // corrupt one journalled input
  const auto result = replay_journal(
      records, [] { return std::make_unique<predict::HybridPredictor>(); });
  ASSERT_FALSE(result.ok());
  bool saw_forecast = false;
  for (const auto& m : result.mismatches) {
    if (m.field == "forecast") saw_forecast = true;
  }
  EXPECT_TRUE(saw_forecast);
}

TEST(ReplayJournal, DetectsMissingRestartFlag) {
  std::vector<double> demand;
  for (int t = 0; t < 30; ++t) demand.push_back(t < 15 ? 3.0 : 12.0);
  auto records = synthesize(demand, /*restart_at=*/16, ReplayPolicy{});
  for (auto& r : records) {
    r.flags &= static_cast<std::uint8_t>(~kJournalDriftRestart);
  }
  // Without the intervention the replayed predictor walks a different
  // float path after the step, so the trace no longer verifies.
  const auto result = replay_journal(
      records, [] { return std::make_unique<predict::HybridPredictor>(); });
  EXPECT_FALSE(result.ok());
}

TEST(ReplayJournal, DetectsSummaryInconsistency) {
  std::vector<double> demand(12, 6.0);
  auto records = synthesize(demand, /*restart_at=*/99, ReplayPolicy{});
  // Find a summary with non-zero prewarms and overstate it.
  bool corrupted = false;
  for (auto& r : records) {
    if ((r.flags & kJournalSummary) != 0) {
      r.prewarms = static_cast<std::uint16_t>(r.prewarms + 1);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const auto result = replay_journal(
      records, [] { return std::make_unique<predict::HybridPredictor>(); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.mismatches[0].field, "summary_prewarms");
}

TEST(ReplayJournal, PolicyFlagsChangeVerdict) {
  // Ramp up then collapse: the decaying forecast leaves a real surplus,
  // where sharing spares one runtime for donation and nominates — the
  // ticks where the policies actually disagree.
  std::vector<double> demand;
  for (int t = 0; t < 10; ++t) demand.push_back(8.0);
  for (int t = 0; t < 10; ++t) demand.push_back(0.5);
  ReplayPolicy sharing;
  sharing.sharing_enabled = true;
  const auto records = synthesize(demand, /*restart_at=*/99, sharing);
  // Replaying a sharing-enabled trace under the default (sharing off)
  // policy must flag the nomination/retire differences, not mask them.
  const auto wrong = replay_journal(
      records, [] { return std::make_unique<predict::HybridPredictor>(); },
      ReplayPolicy{});
  const auto right = replay_journal(
      records, [] { return std::make_unique<predict::HybridPredictor>(); },
      sharing);
  EXPECT_TRUE(right.ok());
  EXPECT_FALSE(wrong.ok());
}

}  // namespace
}  // namespace hotc::obs
