// Seqlock: optimistic read-mostly synchronisation for small snapshots.
//
// A writer (already exclusive — here, the holder of a pool-shard ranked
// mutex) brackets its updates between two sequence bumps: the first makes
// the count odd ("write in progress"), the second makes it even again.
// Readers load the sequence, speculatively read the protected fields, and
// re-load the sequence: if both loads return the same even value, no
// writer overlapped the read and the snapshot is consistent; otherwise the
// reader retries.  Readers never block writers and never take the mutex —
// exactly the property PoolView consumers (controller ticks, metrics
// scrapes, donor-registry liveness probes) need on the hot path.
//
// TSan-cleanliness: the classic seqlock protects *plain* fields with
// fences, which ThreadSanitizer cannot model (fences are invisible to its
// happens-before machinery) and which is a genuine data race under the C++
// memory model.  We therefore require every protected field to be a
// std::atomic read/written with relaxed-or-stronger orders, and put the
// publication ordering on the sequence word itself:
//
//   writer:  seq.store(seq+1, release)   // odd: write begins
//            fields.store(.., release)
//            seq.store(seq+1, release)   // even: write visible
//   reader:  s1 = seq.load(acquire); if (s1 odd) retry
//            fields.load(acquire)
//            s2 = seq.load(acquire); if (s1 != s2) retry
//
// The writer is already exclusive (it holds the owning mutex), so the
// sequence bumps are plain load+store-release pairs, not RMWs — two movs
// on x86 instead of two locked adds, which is what keeps the striped
// pool's single-thread cost at parity with a bare mutex.  Consistency
// argument: if any reader field load observes a value stored inside write
// N, that release store carries a happens-before edge, so the reader's
// subsequent s2 load sees at least write N's odd begin value and the
// s1 == s2 check fails; if s1 already reads write N's even end value, the
// acquire on s1 makes every field store of write N visible.  All accesses
// are atomic, so the race TSan would report on plain fields cannot arise.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/prof_hook.hpp"

namespace hotc {

class SeqLock {
 public:
  SeqLock() = default;
  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  /// Writer side — caller must already be exclusive (hold the owning
  /// mutex).  Bracket the field stores between begin/end.
  void write_begin() noexcept {
    // Exclusive writer: load+store beats an RMW (see header comment).
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }
  void write_end() noexcept {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  /// Reader side — run `fn` (atomic loads only, no side effects that
  /// cannot be repeated) until it executes without a concurrent writer.
  /// Retried reads are reported to the contention profiler when one is
  /// attached; the clean first-try read (the overwhelmingly common case)
  /// pays only a `retries != 0` register compare for it.
  template <typename Fn>
  auto read(Fn&& fn) const {
    std::uint32_t retries = 0;
    for (;;) {
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1u) != 0u) {  // writer active: spin
        ++retries;
        continue;
      }
      auto result = fn();
      if (seq_.load(std::memory_order_acquire) == s1) {
        if (retries != 0) {
          if (const prof::Hooks* hooks = prof::hooks()) {
            hooks->seqlock_retry(retries);
          }
        }
        return result;
      }
      ++retries;
    }
  }

  /// RAII writer bracket.
  class WriteGuard {
   public:
    explicit WriteGuard(SeqLock& lock) noexcept : lock_(lock) {
      lock_.write_begin();
    }
    ~WriteGuard() { lock_.write_end(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    SeqLock& lock_;
  };

  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return seq_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace hotc
