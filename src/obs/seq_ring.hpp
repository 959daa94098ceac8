// SeqRing: the bounded MPMC record ring behind the span flight recorder
// (obs/trace.hpp) and the decision journal (obs/journal.hpp), and the one
// reader of its slots, live or from a crash dump (obs/postmortem.hpp).
//
// Sequence word per slot: 0 = never written; 2c+1 = write in progress for
// cycle c; 2c+2 = readable, written at cycle c (cycle = ticket >> shift).
//
// Publish: one fetch_add on the head ticket assigns (slot, cycle), and the
// writer claims the slot with one CAS on its sequence word, from an even
// (readable or never-written) value of an older cycle to its own odd
// "writing" value.  A writer that finds the slot odd (another writer is
// mid-store) or at a newer cycle (it was lapped while stalled) counts a
// drop and writes nothing: it never blocks, and at most one writer ever
// stores into a slot's words.  The winner release-stores the payload
// words and stamps the slot even.
//
// Read: scan every slot, copy those with an even non-zero sequence, keep
// a copy only if the sequence did not change across it, and order the
// survivors by the ticket rebuilt from (sequence, slot index).  Payload
// words are acquire-loaded: a reader that sees any word of an
// in-progress overwrite also sees the writer's odd sequence on its
// re-read, so a torn slot never passes validation.  A crash dump carries
// no head pointer, so the same scan decodes it (decode()).
//
// A Record supplies kWords and its codec: `to_words(ticket)` packs it
// into payload words (the ticket is the publication ordinal, for records
// that stamp one) and `from_words(words)` unpacks it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace hotc::obs {

/// A ring's slot array as raw memory: what the crash dumper copies
/// (obs/blackbox.hpp) and decode() reads back.
struct RawRing {
  const void* data = nullptr;
  std::size_t bytes = 0;
  /// {capacity, shift = log2(capacity), payload words, slot stride}.
  std::uint64_t params[4] = {0, 0, 0, 0};
};

template <class Record>
class SeqRing {
 public:
  static constexpr std::size_t kWords = Record::kWords;
  using Words = std::array<std::uint64_t, kWords>;

  /// Capacity rounds up to a power of two, at least 2.
  explicit SeqRing(std::size_t capacity)
      : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 2))),
        mask_(slots_.size() - 1),
        shift_(static_cast<unsigned>(std::countr_zero(slots_.size()))) {}

  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  /// Publish one record, or count a drop (see dropped()).  Inline: one
  /// fetch_add, one CAS and kWords + 1 stores.
  // hotc-analyze: hot-path-root
  void record(const Record& rec) {
    const std::uint64_t ticket =
        head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    const std::uint64_t writing = 2 * (ticket >> shift_) + 1;
    // Claim only an even slot of an older cycle: odd means another writer
    // is mid-store, past `writing` means this stalled writer was lapped.
    // Either way drop before touching a word.
    std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
    if ((seen & 1) != 0 || seen > writing ||
        !slot.seq.compare_exchange_strong(seen, writing,
                                          std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Release stores (plain stores on x86) order the odd sequence before
    // every payload word.  Unrolled, the words go straight from registers.
    const Words words = rec.to_words(ticket);
#pragma GCC unroll 16
    for (std::size_t w = 0; w < kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_release);
    }
    slot.seq.store(writing + 1, std::memory_order_release);
  }

  /// Every currently readable record, oldest first.  Slots a concurrent
  /// writer overwrites mid-read are skipped, never torn.
  [[nodiscard]] std::vector<Record> snapshot() const {
    return scan(slots_.size(), shift_, nullptr,
                [this](std::uint64_t i, std::size_t w) {
                  const Slot& s = slots_[i];
                  return (w == 0 ? s.seq : s.words[w - 1])
                      .load(std::memory_order_acquire);
                });
  }

  /// The newest `n` readable records, oldest first.
  [[nodiscard]] std::vector<Record> tail(std::size_t n) const {
    std::vector<Record> all = snapshot();
    if (all.size() > n) {
      all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
    }
    return all;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Records ever published, dropped ones included (the head ticket).
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The slot array: stable, contiguous memory a signal handler may copy
  /// with nothing but write(2).
  [[nodiscard]] RawRing raw_ring() const {
    return {slots_.data(),
            slots_.size() * sizeof(Slot),
            {slots_.size(), shift_, kWords, sizeof(Slot)}};
  }

  /// Decode a dumped slot array with the same scan as snapshot(); slots a
  /// writer was mid-publish in at the crash are counted in `torn`.  The
  /// geometry comes from an untrusted file: params that do not describe
  /// whole slots of this record inside `raw.bytes` decode as empty.
  [[nodiscard]] static std::vector<Record> decode(const RawRing& raw,
                                                  std::uint64_t* torn) {
    const std::uint64_t capacity = raw.params[0];
    const std::uint64_t shift = raw.params[1];
    const std::uint64_t stride = raw.params[3];
    if (shift >= 64 || capacity != std::uint64_t{1} << shift ||
        raw.params[2] != kWords ||
        stride < (kWords + 1) * sizeof(std::uint64_t) ||
        capacity > raw.bytes / stride) {
      return {};
    }
    const auto* base = static_cast<const std::uint8_t*>(raw.data);
    return scan(capacity, static_cast<unsigned>(shift), torn,
                [base, stride](std::uint64_t i, std::size_t w) {
                  std::uint64_t v = 0;
                  std::memcpy(&v, base + i * stride + w * sizeof(v),
                              sizeof(v));
                  return v;
                });
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kWords]{};
  };

  /// The one validated read.  `load(i, 0)` is slot i's sequence word and
  /// `load(i, w)` its payload word w - 1.
  template <class Load>
  static std::vector<Record> scan(std::uint64_t capacity, unsigned shift,
                                  std::uint64_t* torn, Load load) {
    std::vector<std::pair<std::uint64_t, Record>> found;
    found.reserve(capacity);
    for (std::uint64_t i = 0; i < capacity; ++i) {
      const std::uint64_t seq = load(i, 0);
      if (seq == 0) continue;
      if ((seq & 1) != 0) {
        if (torn != nullptr) ++*torn;
        continue;
      }
      Words words;
      for (std::size_t w = 0; w < kWords; ++w) words[w] = load(i, w + 1);
      if (load(i, 0) != seq) continue;
      found.emplace_back((((seq - 2) / 2) << shift) + i,
                         Record::from_words(words));
    }
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Record> out;
    out.reserve(found.size());
    for (const auto& entry : found) out.push_back(entry.second);
    return out;
  }

  std::vector<Slot> slots_;
  std::uint64_t mask_;
  unsigned shift_;  // log2(capacity): cycle = ticket >> shift_
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace hotc::obs
