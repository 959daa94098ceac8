// The HotC container runtime pool (Section IV-B).
//
// "HotC maintains a key value store to track the available containers.
// The key is the formatted parameter configurations for each container and
// the value is a list with container ID and state of the container."
//
// The pool is pure bookkeeping: it never talks to the engine itself (the
// controller owns sequencing engine operations), which keeps it trivially
// testable and reusable behind the distributed-store interface in
// src/cluster.  num_avail[key] is maintained exactly as Algorithms 1 and 2
// describe: decremented on reuse, incremented after cleanup.
//
// Storage is flat (zero-allocation hot path): residencies live in a slab
// of Records recycled through an intrusive free list; per-key FIFO order
// is an intrusive doubly-linked list threaded through the slab, with the
// list heads in a vector indexed by the interned KeyId; the container-id
// index is an open-addressed IdSlotMap.  Steady-state acquire/add/remove
// touch no allocator and chase at most one probe chain — the node-based
// unordered_map/deque layout this replaces allocated on every mutation.
//
// Victim selection is O(log n): two lazily-pruned min-heaps index every
// pooled residency by created_at (oldest-first) and returned_at (LRU).
// Heap nodes carry a per-residency generation; a node is live iff the
// id-keyed slab still holds that (id, generation) pair, so acquire and
// remove never touch the heaps — stale nodes are skipped at the next
// select_victim and compacted away once they outnumber live entries.
// The heap protocol is byte-identical to the node-based layout, so the
// eviction order (a bench gate) is bit-identical too.
//
// Counters (stats, flow ledger, live/paused totals, per-key avail) are
// single-writer atomics: the pool itself is still strictly single-writer
// (callers serialise mutations — RuntimePool standalone is simply not
// thread-safe, ShardedRuntimePool holds the shard mutex), but every store
// is release-ordered so the sharding wrapper's seqlock can expose them to
// lock-free readers.  On x86 a release store is a plain mov: the
// single-threaded cost is identical to plain fields.
//
// Under -DHOTC_AUDIT every mutator re-runs check_conservation() before it
// returns and aborts through audit::enforce() at the operation that broke
// the ledger — whether the pool is HotCController's or one shard of a
// ShardedRuntimePool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/chunked_atomic.hpp"
#include "core/flat_map.hpp"
#include "core/result.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "engine/container.hpp"
#include "pool/eviction.hpp"
#include "pool/pool_view.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::pool {

/// One pooled container's bookkeeping record.
struct PoolEntry {
  engine::ContainerId id = 0;
  spec::RuntimeKey key;
  TimePoint created_at = kZeroDuration;   // container birth (eviction age)
  TimePoint returned_at = kZeroDuration;  // when it last became available
  std::uint64_t reuse_count = 0;
  /// Identity hash of the app whose init state is resident (real-execution
  /// mode; 0 = none).  A warm hit with a matching tag also skips app init.
  std::uint64_t app_tag = 0;
  bool prewarmed = false;  // launched by the adaptive controller, not a miss
  bool paused = false;     // cgroup-frozen; must be resumed before exec
  /// This residency entered via cross-key donation: the container was
  /// leased from a sibling key's pool and re-specialized to this key.
  /// Counted (and cleared) by add_available so each conversion is scored
  /// exactly once.
  bool respecialized = false;
  /// This residency entered via checkpoint-restore: the container was
  /// revived from the snapshot tier instead of cold-started.  Counted (and
  /// cleared) by add_available, mirroring `respecialized`.
  bool restored = false;
};

struct PoolStats {
  std::uint64_t hits = 0;        // requests served from the pool
  std::uint64_t misses = 0;      // requests that had to cold-start
  std::uint64_t evictions = 0;
  std::uint64_t returns = 0;     // containers cleaned and re-pooled

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

struct PoolLimits {
  std::size_t max_live = 500;       // paper: "maximum number ... to 500"
  double memory_threshold = 0.8;    // paper: "memory usage threshold as 80%"
};

/// The pool's conservation ledger: the lifetime flow counters plus the
/// current occupancy they must balance against.  It is the only ledger
/// record; audit::verify() (pool/audit.hpp) holds its identities.  Every
/// residency enters via add_available (admitted) and leaves via acquire
/// (leased) or remove/clear (removed).  Sharing adds two sub-flows:
/// donated ⊆ leased (a donation is a lease with different attribution)
/// and respecialized ⊆ admitted (a converted donor re-enters with the
/// flag set).  Tiering adds two more: checkpointed ⊆ removed (a demotion
/// is a removal whose container parks in the snapshot store) and
/// restored ⊆ admitted (a revived snapshot re-enters with `restored`).
struct PoolFlows {
  std::uint64_t admitted = 0;
  std::uint64_t leased = 0;
  std::uint64_t removed = 0;
  std::uint64_t donated = 0;
  std::uint64_t respecialized = 0;
  std::uint64_t checkpointed = 0;
  std::uint64_t restored = 0;
  std::uint64_t pooled = 0;
  std::uint64_t paused = 0;

  PoolFlows& operator+=(const PoolFlows& other) {
    admitted += other.admitted;
    leased += other.leased;
    removed += other.removed;
    donated += other.donated;
    respecialized += other.respecialized;
    checkpointed += other.checkpointed;
    restored += other.restored;
    pooled += other.pooled;
    paused += other.paused;
    return *this;
  }
  bool operator==(const PoolFlows&) const = default;
};

class RuntimePool : public PoolView {
 public:
  explicit RuntimePool(PoolLimits limits = {});

  /// Algorithm 1: take an available container of this runtime type, or
  /// nullopt (caller cold-starts).  Decrements num_avail[key]; records a
  /// hit or miss.
  std::optional<PoolEntry> acquire(const spec::RuntimeKey& key,
                                   TimePoint now);

  /// Cross-key sharing: lease an idle container of `key` to be donated to
  /// a *different* key.  Identical to acquire() except that it records a
  /// donation instead of a hit/miss — the exact-match hit rate must not
  /// change when sharing is enabled — and does not bump reuse_count (the
  /// residency under the new key is not a reuse of this key).
  std::optional<PoolEntry> acquire_for_donation(const spec::RuntimeKey& key,
                                                TimePoint now);

  /// A freshly launched or freshly cleaned container becomes available
  /// (Algorithm 2's num_avail[key]++).
  void add_available(const PoolEntry& entry, TimePoint now);

  /// Remove a specific container from the available list (it was stopped
  /// outside the usual acquire path, e.g. by the adaptive controller).
  bool remove(const spec::RuntimeKey& key, engine::ContainerId id);

  /// Remove a container that is being demoted into the checkpoint store.
  /// Identical to remove() (the residency leaves the pool) plus the
  /// checkpointed sub-flow attribution: checkpointed ⊆ removed.
  bool remove_for_checkpoint(const spec::RuntimeKey& key,
                             engine::ContainerId id);

  /// Flag a pooled container as paused (still acquirable; the controller
  /// resumes it before executing).  Returns false if absent or already
  /// paused.
  bool mark_paused(const spec::RuntimeKey& key, engine::ContainerId id);

  /// Pick the idle container the policy would evict next (does not remove
  /// it; the controller stops it via the engine and then calls remove()).
  /// Oldest-first and LRU are O(log n) amortised via the age heaps;
  /// random is O(keys) to walk the per-key counts.
  [[nodiscard]] std::optional<PoolEntry> select_victim(
      EvictionPolicy policy, Rng* rng = nullptr) const;

  /// The index-th pooled entry (0 <= index < total_available()) in key
  /// iteration order.  Lets a sharding wrapper draw one uniform random
  /// victim across shards with a single externally-drawn index.
  [[nodiscard]] std::optional<PoolEntry> entry_at(std::size_t index) const;

  /// Count eviction as performed (bumps stats).
  void count_eviction() { bump(stats_evictions_); }

  // --- queries (PoolView; single atomic loads are safe lock-free, the
  // sharding wrapper seqlock-brackets multi-field reads) -----------------
  [[nodiscard]] std::size_t num_available(
      const spec::RuntimeKey& key) const override;
  [[nodiscard]] std::size_t total_available() const override {
    return static_cast<std::size_t>(
        live_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::size_t paused_count() const override {
    return static_cast<std::size_t>(
        paused_.load(std::memory_order_acquire));
  }
  [[nodiscard]] PoolStats stats_snapshot() const override { return stats(); }
  [[nodiscard]] std::vector<spec::RuntimeKey> keys() const override;
  [[nodiscard]] std::vector<PoolEntry> entries(
      const spec::RuntimeKey& key) const override;
  [[nodiscard]] bool at_capacity() const override {
    return total_available() >= limits_.max_live;
  }
  [[nodiscard]] const PoolLimits& limits() const override { return limits_; }

  /// Hits and returns are ledger flows, not counters of their own: every
  /// lease that is not a donation is a hit, and every admission a return.
  [[nodiscard]] PoolStats stats() const {
    PoolStats out;
    out.hits = leased_.load(std::memory_order_acquire) -
               donated_.load(std::memory_order_acquire);
    out.misses = stats_misses_.load(std::memory_order_acquire);
    out.evictions = stats_evictions_.load(std::memory_order_acquire);
    out.returns = admitted_.load(std::memory_order_acquire);
    return out;
  }

  // --- conservation accounting (see src/pool/audit.hpp) -----------------
  [[nodiscard]] PoolFlows flows() const override;
  /// audit::verify() over flows(), then the structural invariants binding
  /// the slab, the per-key lists, the id index, paused_ and the eviction
  /// heaps.  HOTC_AUDIT builds run it after every mutation.
  [[nodiscard]] Result<bool> check_conservation() const override;

  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Stale heap nodes tolerated beyond 2x the live entries before
  /// maybe_compact() rebuilds the heaps.
  static constexpr std::size_t kCompactSlack = 64;

  /// One residency of a container in the pool, threaded on its key's FIFO
  /// list.  `gen` is unique per residency: re-adding an acquired container
  /// bumps it, which retires any heap nodes still pointing at the previous
  /// stay.  Slots are recycled through `free_` when the residency ends.
  struct Record {
    PoolEntry entry;
    std::uint64_t gen = 0;
    std::uint32_t prev = kNil;  // intrusive per-key FIFO links
    std::uint32_t next = kNil;
    bool live = false;
  };

  /// Per-key FIFO list head/tail, indexed directly by interned KeyId.
  struct KeyBucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
  };

  struct AgeNode {
    TimePoint at = kZeroDuration;
    std::uint64_t gen = 0;
    engine::ContainerId id = 0;
  };
  struct AgeGreater {
    bool operator()(const AgeNode& a, const AgeNode& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on age
      return a.gen > b.gen;                  // earlier insertion wins ties
    }
  };
  /// Deferred-order eviction index.  push() is a plain append — the
  /// acquire/return hot path never sifts — and the heap invariant is
  /// restored at the next victim selection by sifting in just the nodes
  /// appended since (`sorted_` tracks the heap-ordered prefix).  Return
  /// timestamps are near-monotonic, so each deferred sift-up terminates
  /// after about one comparison; the full make_heap alternative would
  /// rescan every node on every eviction slice.  AgeGreater is a total
  /// order over (at, gen), so top() yields the unique minimum and the
  /// victim sequence is identical to an eagerly-sifted heap.
  struct AgeHeap {
    std::vector<AgeNode> nodes;
    std::size_t sorted_ = 0;  // nodes[0..sorted_) satisfy the heap invariant

    void push(const AgeNode& n) {
      // The first push reserves the compaction slack, so the heaps of a
      // pool of fewer than kCompactSlack / 2 live entries never grow.
      if (nodes.capacity() == 0) nodes.reserve(2 * kCompactSlack);
      nodes.push_back(n);
    }
    void ensure() {
      while (sorted_ < nodes.size()) {
        ++sorted_;
        std::push_heap(nodes.begin(),
                       nodes.begin() + static_cast<std::ptrdiff_t>(sorted_),
                       AgeGreater{});
      }
    }
    [[nodiscard]] const AgeNode& top() {
      ensure();
      return nodes.front();
    }
    void pop() {
      ensure();
      std::pop_heap(nodes.begin(), nodes.end(), AgeGreater{});
      nodes.pop_back();
      --sorted_;
    }
    [[nodiscard]] bool empty() const { return nodes.empty(); }
    [[nodiscard]] std::size_t size() const { return nodes.size(); }
  };

  /// Memoised victim_from() answer: the live residency minimising
  /// (at, gen) for one heap's ordering.  Exactness invariant: while
  /// `valid` and the (id, gen) residency is still pooled, it IS the
  /// argmin — every later add carries a larger gen (next_gen_ is
  /// monotonic) and so loses timestamp ties, meaning only an add with a
  /// strictly smaller timestamp can dethrone the cache, and that add
  /// replaces it inline.  Leases/removes of the cached residency are
  /// caught by the gen check at use time, which falls back to the heap
  /// scan.  Turns the all-shard eviction slice from sixteen heap scans
  /// into sixteen index probes.
  struct VictimCache {
    bool valid = false;
    TimePoint at = kZeroDuration;
    std::uint64_t gen = 0;
    engine::ContainerId id = 0;
  };

  [[nodiscard]] const KeyBucket* bucket_for(spec::KeyId id) const {
    return id < buckets_.size() ? &buckets_[id] : nullptr;
  }
  KeyBucket& ensure_bucket(spec::KeyId id);
  std::uint32_t new_slot();
  void unlink(std::uint32_t slot);
  /// Detach the head of `key`'s FIFO list and retire its slot, returning
  /// the entry (common tail of acquire/acquire_for_donation).
  std::optional<PoolEntry> take_front(const spec::RuntimeKey& key);
  /// Take one residency out by id and count it removed (common body of
  /// remove/remove_for_checkpoint).
  bool erase(const spec::RuntimeKey& key, engine::ContainerId id);

  /// Drop stale heap tops, then return the live minimum (nullopt if none).
  /// Served from `cache` in O(1) when its residency is still pooled.
  [[nodiscard]] std::optional<PoolEntry> victim_from(AgeHeap& heap,
                                                     VictimCache& cache) const;

  /// Rebuild both heaps from live records once stale nodes dominate.
  void maybe_compact();

  /// Single-writer counter update: release store so the sharding
  /// wrapper's seqlock readers observe it; plain mov on x86.
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t delta = 1) {
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_release);
  }
  static void drop(std::atomic<std::uint64_t>& c, std::uint64_t delta = 1) {
    c.store(c.load(std::memory_order_relaxed) - delta,
            std::memory_order_release);
  }

  PoolLimits limits_;
  // Single-writer core state: the owner (HotCController's simulator thread,
  // or a ShardedRuntimePool shard under its mu) serializes every mutation.
  std::vector<Record> slab_ HOTC_CALLER_SERIALIZED;
  std::vector<std::uint32_t> free_ HOTC_CALLER_SERIALIZED;   // recycled slots
  std::vector<KeyBucket> buckets_ HOTC_CALLER_SERIALIZED;    // KeyId -> FIFO
  IdSlotMap index_ HOTC_CALLER_SERIALIZED;  // container id -> slab slot
  /// Per-KeyId available counts in chunked stable storage: lock-free
  /// num_available() even while the writer grows the key universe.
  ChunkedAtomicU32 avail_;
  // Lazy eviction indexes (mutable: select_victim prunes under const).
  mutable AgeHeap by_created_;
  mutable AgeHeap by_returned_;
  mutable VictimCache oldest_cache_;   // argmin (created_at, gen) over live
  mutable VictimCache coldest_cache_;  // argmin (returned_at, gen) over live
  std::uint64_t next_gen_ = 0;
  // Single-writer atomics (see bump/drop): lock-free read side.
  std::atomic<std::uint64_t> live_{0};   // residencies currently pooled
  std::atomic<std::uint64_t> paused_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> leased_{0};
  std::atomic<std::uint64_t> removed_{0};
  std::atomic<std::uint64_t> donated_{0};
  std::atomic<std::uint64_t> respecialized_{0};
  std::atomic<std::uint64_t> checkpointed_{0};  // ⊆ removed_
  std::atomic<std::uint64_t> restored_{0};      // ⊆ admitted_
  std::atomic<std::uint64_t> stats_misses_{0};
  std::atomic<std::uint64_t> stats_evictions_{0};
};

}  // namespace hotc::pool
