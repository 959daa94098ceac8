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

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t c = 1;
  while (c < v) c <<= 1;
  return c;
}

}  // namespace

DecisionJournal::DecisionJournal(std::size_t capacity, bool audit)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      audit_(audit) {
  mask_ = slots_.size() - 1;
  shift_ = 0;
  while ((std::size_t{1} << shift_) < slots_.size()) ++shift_;
}

void DecisionJournal::pack(const DecisionRecord& rec, Slot& slot) {
  slot.words[0].store(rec.tick, std::memory_order_release);
  slot.words[1].store(rec.key_hash, std::memory_order_release);
  slot.words[2].store(std::bit_cast<std::uint64_t>(rec.demand),
                      std::memory_order_release);
  slot.words[3].store(std::bit_cast<std::uint64_t>(rec.smoothed),
                      std::memory_order_release);
  slot.words[4].store(std::bit_cast<std::uint64_t>(rec.forecast),
                      std::memory_order_release);
  const std::uint64_t inputs =
      (static_cast<std::uint64_t>(static_cast<std::uint8_t>(
           rec.markov_region))) |
      (static_cast<std::uint64_t>(rec.flags) << 8) |
      (static_cast<std::uint64_t>(rec.have) << 16) |
      (static_cast<std::uint64_t>(rec.available) << 32) |
      (static_cast<std::uint64_t>(rec.headroom) << 48);
  slot.words[5].store(inputs, std::memory_order_release);
  const std::uint64_t outputs =
      static_cast<std::uint64_t>(rec.prewarms) |
      (static_cast<std::uint64_t>(rec.retires) << 16) |
      (static_cast<std::uint64_t>(rec.evictions) << 32) |
      (static_cast<std::uint64_t>(rec.donations) << 48);
  slot.words[6].store(outputs, std::memory_order_release);
  slot.words[7].store(static_cast<std::uint64_t>(rec.key_id),
                      std::memory_order_release);
}

DecisionRecord DecisionJournal::unpack(const Slot& slot) {
  DecisionRecord rec;
  rec.tick = slot.words[0].load(std::memory_order_acquire);
  rec.key_hash = slot.words[1].load(std::memory_order_acquire);
  rec.demand = std::bit_cast<double>(
      slot.words[2].load(std::memory_order_acquire));
  rec.smoothed = std::bit_cast<double>(
      slot.words[3].load(std::memory_order_acquire));
  rec.forecast = std::bit_cast<double>(
      slot.words[4].load(std::memory_order_acquire));
  const std::uint64_t inputs =
      slot.words[5].load(std::memory_order_acquire);
  rec.markov_region =
      static_cast<std::int8_t>(static_cast<std::uint8_t>(inputs & 0xff));
  rec.flags = static_cast<std::uint8_t>((inputs >> 8) & 0xff);
  rec.have = static_cast<std::uint16_t>((inputs >> 16) & 0xffff);
  rec.available = static_cast<std::uint16_t>((inputs >> 32) & 0xffff);
  rec.headroom = static_cast<std::uint16_t>((inputs >> 48) & 0xffff);
  const std::uint64_t outputs =
      slot.words[6].load(std::memory_order_acquire);
  rec.prewarms = static_cast<std::uint16_t>(outputs & 0xffff);
  rec.retires = static_cast<std::uint16_t>((outputs >> 16) & 0xffff);
  rec.evictions = static_cast<std::uint16_t>((outputs >> 32) & 0xffff);
  rec.donations = static_cast<std::uint16_t>((outputs >> 48) & 0xffff);
  rec.key_id = static_cast<std::uint32_t>(
      slot.words[7].load(std::memory_order_acquire));
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

  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  const std::uint64_t writing = 2 * (ticket >> shift_) + 1;
  // Slot claim, same as FlightRecorder::record: one CAS from a readable
  // value of an older cycle, else count a drop and write nothing.
  std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  if ((seen & 1) != 0 || seen > writing ||
      !slot.seq.compare_exchange_strong(seen, writing,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  pack(rec, slot);
  slot.seq.store(writing + 1, std::memory_order_release);
}

std::vector<DecisionRecord> DecisionJournal::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(head, slots_.size());
  std::vector<DecisionRecord> out;
  out.reserve(count);
  for (std::uint64_t ticket = head - count; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    const std::uint64_t expect = 2 * (ticket >> shift_) + 2;
    if (slot.seq.load(std::memory_order_acquire) != expect) continue;
    DecisionRecord rec = unpack(slot);
    if (slot.seq.load(std::memory_order_acquire) != expect) continue;
    out.push_back(rec);
  }
  return out;
}

std::vector<DecisionRecord> DecisionJournal::tail(std::size_t n) const {
  std::vector<DecisionRecord> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
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
