// Lock-rank auditing: deterministic deadlock prevention.
//
// Every mutex in the library carries a rank drawn from the bands below.  A
// thread may only acquire a mutex whose (band, sequence) order is strictly
// greater than the order of every lock it already holds, so any two threads
// that could deadlock by acquiring the same pair of locks in opposite
// orders trip the auditor on the *first* inverted acquisition — no lucky
// interleaving required, unlike TSan's happens-before detection which only
// reports orders it actually observes.
//
// Rank bands (acquire downward through this table, outermost first):
//
//   band  owner                          sequence within band
//   ----  -----------------------------  -----------------------------
//    10   cluster router state           0
//    20   faas gateway counters          0
//    30   runtime thread-pool queue      0
//    40   (reserved: engine)             —
//    45   share donor registry           stripe index — a stripe lock is
//                                        held across PoolView liveness
//                                        reads, which acquire pool-shard
//                                        locks (50); the registry must
//                                        therefore rank strictly below
//                                        the shards
//    50   pool shards                    shard index — lock_all() takes
//                                        shards in index order, which is
//                                        exactly the increasing-sequence
//                                        rule within the band
//    55   snapshot checkpoint store      stripe index — the tiering
//                                        controller demotes a pool-evict
//                                        victim into the store, so a
//                                        store stripe may be taken while
//                                        a pool shard (50) is held; a
//                                        stripe holder may still register
//                                        metrics (80), intern (85) and
//                                        log (90)
//    65   obs time-series store          0 — retained-history ring
//                                        (obs/tsdb.hpp).  Strictly below
//                                        the diagnosis band so the
//                                        anomaly detector may push into
//                                        the SLO alert ring (70) — and
//                                        below the registry (80) so it
//                                        may read the registry's
//                                        collector epoch — while holding
//                                        its sampling lock
//    70   obs diagnosis state            0 — SLO engine windows + alert
//                                        ring
//    80   obs metrics registry index     0 — any subsystem may register
//                                        an instrument while holding its
//                                        own locks; increments are
//                                        lock-free and never touch this,
//                                        and snapshot() releases it
//                                        before running the collectors,
//                                        which take their owners' locks
//                                        of any lower band
//    85   spec key interner writer       0 — append-only interner growth;
//                                        a cold-path key parse may intern
//                                        while the caller holds registry,
//                                        share or shard locks, so the
//                                        writer lock is a near-leaf.
//                                        Reads never take it (RCU-style
//                                        published tables)
//    90   log sink (leaf: anything may   0
//         hold anything while logging)
//
// Auditing is compiled in for debug builds and -DHOTC_AUDIT=ON builds and
// compiles away entirely otherwise: in release, RankedMutex is a plain
// std::mutex wrapper with the rank arguments discarded at compile time, so
// the hot path pays nothing for the discipline.  Tests that must exercise
// the auditor regardless of build flavour use AuditedRankedMutex, which is
// always the tracking implementation.
//
// Both flavours share one contended path: after a failed try_lock, a
// bounded spin of try_lock retries (kLockSpinTries, a CPU relax hint
// apart), then a blocking lock.  The request path's holds last a few
// hundred nanoseconds: sleeping in the kernel on the first failed try
// would pay a futex sleep and wake for a wait the spin ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <vector>

#include "core/annotations.hpp"
#include "core/assert.hpp"
#include "core/cpu_relax.hpp"
#include "core/crash_hook.hpp"
#include "core/prof_hook.hpp"

namespace hotc {

/// Rank bands, ordered outermost (locked first) to innermost (leaf).
enum class LockRank : std::uint32_t {
  kClusterRouter = 10,
  kGateway = 20,
  kThreadPoolQueue = 30,
  kShareRegistry = 45,
  kPoolShard = 50,
  kSnapshotStore = 55,
  kObsTsdb = 65,
  kObsDiagnosis = 70,
  kObsRegistry = 80,
  kKeyInterner = 85,
  kLogSink = 90,
};

#if defined(HOTC_LOCK_AUDIT) || !defined(NDEBUG)
inline constexpr bool kLockAuditEnabled = true;
#else
inline constexpr bool kLockAuditEnabled = false;
#endif

namespace detail {

/// Total order over all ranked mutexes: band major, sequence minor.
constexpr std::uint64_t lock_order(LockRank rank, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(rank) << 32) | seq;
}

struct HeldLock {
  std::uint64_t order = 0;
  const void* mutex = nullptr;
  const char* name = "";
};

/// The per-thread stack of currently held ranked locks.  Audit builds
/// only; never touched by the release-mode mutex.
inline std::vector<HeldLock>& held_locks() {
  thread_local std::vector<HeldLock> held;
  return held;
}

[[noreturn]] inline void lock_rank_violation(const HeldLock& held,
                                             std::uint64_t order,
                                             const char* name) {
  std::fprintf(stderr,
               "HOTC lock rank violation: acquiring \"%s\" (order %llu) "
               "while holding \"%s\" (order %llu)\n",
               name, static_cast<unsigned long long>(order), held.name,
               static_cast<unsigned long long>(held.order));
  crash::notify_pre_abort("core.ranked_mutex", name);
  std::abort();
}

[[noreturn]] inline void lock_release_violation(const char* name) {
  std::fprintf(stderr,
               "HOTC lock rank violation: releasing \"%s\" which this "
               "thread does not hold\n",
               name);
  crash::notify_pre_abort("core.ranked_mutex", name);
  std::abort();
}

/// try_lock retries a contended acquisition makes, a CPU relax hint
/// apart, before it sleeps in the kernel: about 1 µs of `pause` on x86,
/// longer than the request path's holds (a lane push or pop, a pool
/// acquire or return).
inline constexpr int kLockSpinTries = 64;

/// Contended-acquisition slow path, shared by both mutex flavours: the
/// caller's try_lock already failed, so this retries try_lock a bounded
/// number of times and then blocks.  When a profiler is attached, one
/// monotonic-clock wait timer brackets the spin and the block, reported
/// once per acquisition per (rank band, site name), whichever ends it.
/// The uncontended fast path never reaches here and never loads the hook
/// pointer (DESIGN.md §15 overhead budget).
inline void lock_contended(std::mutex& mu, std::uint32_t band,
                           const char* name) {
  const prof::Hooks* hooks = prof::hooks();
  const auto t0 = hooks != nullptr ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  bool acquired = false;
  for (int i = 0; i < kLockSpinTries && !acquired; ++i) {
    cpu_relax();
    acquired = mu.try_lock();
  }
  if (!acquired) mu.lock();
  if (hooks == nullptr) return;
  const auto wait = std::chrono::steady_clock::now() - t0;
  hooks->lock_wait(
      band, name,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
              .count()));
}

}  // namespace detail

template <bool Audited>
class BasicRankedMutex;

/// Auditing flavour: validates the rank order *before* blocking, so an
/// inversion is reported even when the inconsistent acquisition would have
/// succeeded this time.
template <>
class HOTC_CAPABILITY("mutex") BasicRankedMutex<true> {
 public:
  explicit BasicRankedMutex(LockRank rank, std::uint32_t seq = 0,
                            const char* name = "mutex")
      : order_(detail::lock_order(rank, seq)), name_(name) {}

  BasicRankedMutex(const BasicRankedMutex&) = delete;
  BasicRankedMutex& operator=(const BasicRankedMutex&) = delete;

  void lock() HOTC_ACQUIRE() {
    validate();
    // Contention profiling stamps a wait timer only after try_lock
    // fails; an uncontended acquisition is one CAS, exactly as before.
    if (!mu_.try_lock()) {
      detail::lock_contended(mu_, static_cast<std::uint32_t>(order_ >> 32),
                             name_);
    }
    note_acquired();
  }

  bool try_lock() HOTC_TRY_ACQUIRE(true) {
    validate();
    if (!mu_.try_lock()) return false;
    note_acquired();
    return true;
  }

  void unlock() HOTC_RELEASE() {
    note_released();
    mu_.unlock();
  }

  [[nodiscard]] std::uint64_t order() const { return order_; }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  void validate() const {
    for (const detail::HeldLock& held : detail::held_locks()) {
      // >= also catches relocking the same mutex (self-deadlock).
      if (held.order >= order_) {
        detail::lock_rank_violation(held, order_, name_);
      }
    }
  }

  void note_acquired() {
    detail::held_locks().push_back(detail::HeldLock{order_, this, name_});
  }

  // Locks need not release in LIFO order (lock_all() unlocks a batch
  // front-to-back), so releases erase by identity, newest first.
  void note_released() {
    auto& held = detail::held_locks();
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (it->mutex == this) {
        held.erase(std::next(it).base());
        return;
      }
    }
    detail::lock_release_violation(name_);
  }

  std::mutex mu_;
  std::uint64_t order_;
  const char* name_;
};

/// Release flavour: a plain std::mutex whose contended path spins a
/// bounded number of times before it blocks.  The rank band and name are
/// kept as passive data (8+4 bytes, never touched on the fast path) so
/// the contention profiler can attribute waits in release builds too; the
/// uncontended acquisition is still a single try_lock CAS.
template <>
class HOTC_CAPABILITY("mutex") BasicRankedMutex<false> {
 public:
  explicit BasicRankedMutex(LockRank rank, std::uint32_t /*seq*/ = 0,
                            const char* name = "mutex")
      : band_(static_cast<std::uint32_t>(rank)), name_(name) {}

  BasicRankedMutex(const BasicRankedMutex&) = delete;
  BasicRankedMutex& operator=(const BasicRankedMutex&) = delete;

  void lock() HOTC_ACQUIRE() {
    if (!mu_.try_lock()) detail::lock_contended(mu_, band_, name_);
  }
  bool try_lock() HOTC_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() HOTC_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
  std::uint32_t band_;
  const char* name_;
};

/// The library-wide mutex: audited in debug/HOTC_AUDIT builds, a plain
/// std::mutex otherwise.
using RankedMutex = BasicRankedMutex<kLockAuditEnabled>;

/// Always-audited flavour for tests that prove the auditor fires.
using AuditedRankedMutex = BasicRankedMutex<true>;

/// Drop-in RAII lock (movable, deferrable) over the library mutex.
/// Thread-safety analysis cannot see through std::unique_lock — scoped
/// sections should prefer RankedGuard; unique_lock stays for condition
/// waits and the lock_all() batch, whose functions carry
/// HOTC_NO_THREAD_SAFETY_ANALYSIS.
using RankedLock = std::unique_lock<RankedMutex>;

/// The held locks of one lock_all() batch (every shard of a
/// ShardedRuntimePool, every stripe of a CheckpointStore), in a fixed
/// array: taking a batch allocates nothing.  Owners clamp their lock
/// count to kCapacity.  Locks are added in ascending sequence order, the
/// in-band rule, and released when the batch goes out of scope.
class LockBatch {
 public:
  static constexpr std::size_t kCapacity = 64;

  void emplace_back(RankedMutex& mu) {
    HOTC_ASSERT(count_ < kCapacity);
    locks_[count_++] = RankedLock(mu);
  }

 private:
  std::array<RankedLock, kCapacity> locks_;
  std::size_t count_ = 0;
};

/// The library's scoped lock: equivalent to
/// `const std::lock_guard<RankedMutex>` but visible to both checkers —
/// clang's -Wthread-safety (scoped capability attributes) and
/// hotc_analyze (one guard spelling to scope-track).
class HOTC_SCOPED_CAPABILITY RankedGuard {
 public:
  explicit RankedGuard(RankedMutex& mu) HOTC_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~RankedGuard() HOTC_RELEASE() { mu_.unlock(); }

  RankedGuard(const RankedGuard&) = delete;
  RankedGuard& operator=(const RankedGuard&) = delete;

 private:
  RankedMutex& mu_;
};

}  // namespace hotc
