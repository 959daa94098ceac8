#include "obs/journal.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/crash_hook.hpp"

namespace hotc::obs {

TickDecision decide_tick(const TickInputs& in) {
  TickDecision d;
  // Donor nomination tracks the *unrounded* forecast (see the controller
  // comment): clear surplus over predicted demand may donate its last
  // idle runtime.  A drift-muted key never nominates — its forecast is
  // exactly what the detector distrusts.
  d.nominate_donor = in.sharing_enabled && !in.donation_muted &&
                     static_cast<double>(in.have) > in.forecast + 0.5;
  const auto target = static_cast<std::size_t>(std::ceil(in.forecast));
  if (in.prewarm_enabled && target > in.have) {
    // Under-provisioned: grow toward the forecast, never past the global
    // capacity headroom.
    d.prewarms = std::min(target - in.have, in.headroom);
  } else if (in.retire_enabled && in.have > target) {
    // Over-provisioned: retire the surplus (bounded by what is actually
    // idle); with sharing on, keep one behind for a sibling to convert.
    std::size_t surplus = std::min(in.have - target, in.available);
    if (in.sharing_enabled && surplus > 0) --surplus;
    d.retires = surplus;
  }
  return d;
}

DecisionRecord DecisionRecord::from_words(
    const std::array<std::uint64_t, kWords>& w) {
  DecisionRecord rec;
  rec.tick = w[0];
  rec.key_hash = w[1];
  rec.demand = std::bit_cast<double>(w[2]);
  rec.smoothed = std::bit_cast<double>(w[3]);
  rec.forecast = std::bit_cast<double>(w[4]);
  rec.markov_region = static_cast<std::int8_t>(w[5]);
  rec.flags = static_cast<std::uint8_t>(w[5] >> 8);
  rec.have = static_cast<std::uint16_t>(w[5] >> 16);
  rec.available = static_cast<std::uint16_t>(w[5] >> 32);
  rec.headroom = static_cast<std::uint16_t>(w[5] >> 48);
  rec.prewarms = static_cast<std::uint16_t>(w[6]);
  rec.retires = static_cast<std::uint16_t>(w[6] >> 16);
  rec.evictions = static_cast<std::uint16_t>(w[6] >> 32);
  rec.donations = static_cast<std::uint16_t>(w[6] >> 48);
  rec.key_id = static_cast<std::uint32_t>(w[7]);
  return rec;
}

void DecisionJournal::append(const DecisionRecord& rec) {
  // Tick audit: the journal is a replayable trace only if ticks advance
  // monotonically.  The CAS-max keeps last_tick_ correct under
  // concurrent appends of the *same* tick (the per-key records of one
  // adaptive pass may be interleaved by racing writers).
  std::uint64_t prev = last_tick_.load(std::memory_order_relaxed);
  if (rec.tick == 0 || rec.tick < prev) {
    if (audit_) {
      std::fprintf(stderr,
                   "HOTC decision journal: out-of-band tick %llu "
                   "(last journalled tick %llu)\n",
                   static_cast<unsigned long long>(rec.tick),
                   static_cast<unsigned long long>(prev));
      crash::notify_pre_abort("obs.journal", "out-of-band tick");
      std::abort();
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  while (rec.tick > prev &&
         !last_tick_.compare_exchange_weak(prev, rec.tick,
                                           std::memory_order_relaxed)) {
  }

  record(rec);
}

namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void mismatch(ReplayResult& out, const DecisionRecord& rec,
              const char* field, double expected, double actual) {
  out.mismatches.push_back(
      ReplayMismatch{rec.tick, rec.key_hash, field, expected, actual});
}

}  // namespace

ReplayResult replay_journal(
    const std::vector<DecisionRecord>& records,
    const std::function<predict::PredictorPtr()>& factory,
    const ReplayPolicy& policy) {
  ReplayResult out;
  std::map<std::uint64_t, predict::PredictorPtr> predictors;
  // Per-tick sums of per-key outputs, checked against summary records.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> sums;

  for (const DecisionRecord& rec : records) {
    if ((rec.flags & kJournalSummary) != 0) {
      const auto it = sums.find(rec.tick);
      // A wrapped ring may hold a summary whose per-key records were
      // already overwritten; only fully-present ticks are checkable.
      if (it == sums.end()) continue;
      ++out.records_checked;
      if (it->second.first != rec.prewarms) {
        mismatch(out, rec, "summary_prewarms",
                 static_cast<double>(rec.prewarms),
                 static_cast<double>(it->second.first));
      }
      if (it->second.second != rec.retires) {
        mismatch(out, rec, "summary_retires",
                 static_cast<double>(rec.retires),
                 static_cast<double>(it->second.second));
      }
      continue;
    }

    ++out.records_checked;
    auto [it, fresh] = predictors.try_emplace(rec.key_hash, nullptr);
    if (fresh) it->second = factory();
    predict::Predictor& p = *it->second;

    // Interventions are part of the trace: apply the restart exactly
    // where the live controller did — before this tick's observation.
    if ((rec.flags & kJournalDriftRestart) != 0) p.restart_smoothing();
    p.observe(rec.demand);

    const double smoothed = p.smoothed_value();
    if (!bits_equal(smoothed, rec.smoothed)) {
      mismatch(out, rec, "smoothed", rec.smoothed, smoothed);
    }
    const int region = p.markov_region();
    if (region != rec.markov_region) {
      mismatch(out, rec, "markov_region",
               static_cast<double>(rec.markov_region),
               static_cast<double>(region));
    }
    const double forecast = std::max(0.0, p.predict());
    if (!bits_equal(forecast, rec.forecast)) {
      mismatch(out, rec, "forecast", rec.forecast, forecast);
    }

    TickInputs in;
    in.forecast = rec.forecast;  // the journalled value: decision inputs
    in.have = rec.have;
    in.available = rec.available;
    in.headroom = rec.headroom;
    in.prewarm_enabled = policy.prewarm_enabled;
    in.retire_enabled = policy.retire_enabled;
    in.sharing_enabled = policy.sharing_enabled;
    in.donation_muted = (rec.flags & kJournalDonationMuted) != 0;
    const TickDecision d = decide_tick(in);
    if (d.prewarms != rec.prewarms) {
      mismatch(out, rec, "prewarms", static_cast<double>(rec.prewarms),
               static_cast<double>(d.prewarms));
    }
    if (d.retires != rec.retires) {
      mismatch(out, rec, "retires", static_cast<double>(rec.retires),
               static_cast<double>(d.retires));
    }
    const bool nominated = (rec.flags & kJournalDonorNominated) != 0;
    if (d.nominate_donor != nominated) {
      mismatch(out, rec, "nominate_donor", nominated ? 1.0 : 0.0,
               d.nominate_donor ? 1.0 : 0.0);
    }
    auto& sum = sums[rec.tick];
    sum.first += rec.prewarms;
    sum.second += rec.retires;
  }
  return out;
}

}  // namespace hotc::obs
