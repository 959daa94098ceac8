// Lock-striped runtime pool for the multi-threaded execution paths.
//
// The single-threaded RuntimePool keeps Algorithm 1/2 semantics exact but
// serialises every caller behind one lock when shared across threads (the
// seed's RealHotC did exactly that: one std::mutex around one std::map).
// ShardedRuntimePool stripes the key space over N independent shards, each
// a mutex + RuntimePool pair padded to its own cache line.  A runtime key
// always lands on the same shard (selected from its precomputed 64-bit
// hash — no string comparisons on the hot path; power-of-two shard counts
// reduce to a mask), so per-key FIFO reuse order and all per-key
// invariants are inherited from RuntimePool untouched, while acquire and
// return traffic for distinct keys proceeds in parallel.
//
// Read side is lock-free.  RuntimePool's counters are single-writer
// release-store atomics and each shard carries a SeqLock that its writers
// bump around every mutation, so:
//   - single-counter reads (num_available, total_available, paused_count)
//     are plain atomic loads summed shard by shard;
//   - multi-field reads (stats_snapshot, flows) retry under the shard's
//     seqlock, so each shard's contribution is a consistent cut — flows()
//     satisfies the per-pool conservation identities even while writers
//     run;
//   - acquire() and acquire_for_donation() probe the per-key avail count
//     lock-free first and only take the shard mutex when a container
//     might be present — an empty-pool miss (and every donor-registry
//     liveness probe that finds nothing) never touches a lock.
// See pool_view.hpp for the snapshot semantics of those reads.
//
// Victim selection locks all shards in index order (deadlock-free) for a
// consistent cross-shard snapshot: oldest-first/LRU compare the per-shard
// O(log n) heap minima; random draws one uniform index over the global
// occupancy so a crowded shard is proportionally more likely to lose a
// container — the same distribution the unsharded pool produces.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/assert.hpp"
#include "core/ranked_mutex.hpp"
#include "core/rng.hpp"
#include "core/seqlock.hpp"
#include "core/time.hpp"
#include "engine/container.hpp"
#include "pool/eviction.hpp"
#include "pool/pool.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::pool {

class ShardedRuntimePool : public PoolView {
 public:
  /// Most shards a pool has: lock_all()'s batch is a fixed array of this
  /// many locks.
  static constexpr std::size_t kMaxShards = LockBatch::kCapacity;

  /// `shard_count` 0 picks std::thread::hardware_concurrency(); either
  /// count is clamped to [1, kMaxShards].  Limits apply to the pool as a
  /// whole, not per shard.
  explicit ShardedRuntimePool(PoolLimits limits = {},
                              std::size_t shard_count = 0);

  ShardedRuntimePool(const ShardedRuntimePool&) = delete;
  ShardedRuntimePool& operator=(const ShardedRuntimePool&) = delete;

  // --- hot path (locks at most one shard) -------------------------------
  std::optional<PoolEntry> acquire(const spec::RuntimeKey& key,
                                   TimePoint now);
  /// Cross-key sharing: lease an idle container of `key` for donation to a
  /// different key.  Records a donation instead of a hit/miss (see
  /// RuntimePool::acquire_for_donation); the converted container re-enters
  /// through add_available under its *new* key — usually a different
  /// shard, which is why respecialized <= donated is checked over the sum
  /// of the shards only (audit::Scope::kShardSum).
  std::optional<PoolEntry> acquire_for_donation(const spec::RuntimeKey& key,
                                                TimePoint now);
  void add_available(const PoolEntry& entry, TimePoint now);
  bool remove(const spec::RuntimeKey& key, engine::ContainerId id);
  /// remove() plus the checkpointed sub-flow attribution (the container is
  /// being demoted into the snapshot store; checkpointed ⊆ removed).
  bool remove_for_checkpoint(const spec::RuntimeKey& key,
                             engine::ContainerId id);
  bool mark_paused(const spec::RuntimeKey& key, engine::ContainerId id);

  // --- eviction (locks all shards, index order) -------------------------
  [[nodiscard]] std::optional<PoolEntry> select_victim(
      EvictionPolicy policy, Rng* rng = nullptr) const
      HOTC_NO_THREAD_SAFETY_ANALYSIS;  // holds the lock_all() batch
  void count_eviction() { ++evictions_; }

  // --- queries (PoolView; lock-free, snapshot semantics) ----------------
  [[nodiscard]] std::size_t num_available(
      const spec::RuntimeKey& key) const override;
  [[nodiscard]] std::size_t total_available() const override;
  [[nodiscard]] std::size_t paused_count() const override;
  [[nodiscard]] PoolStats stats_snapshot() const override;
  /// Lock-free: each shard's ledger is read under its seqlock and the cuts
  /// are summed.  Per-shard cuts compose (every shard balances on its
  /// own), so the per-pool identities hold on every read;
  /// respecialized <= donated only at quiescence (the donor's debit and
  /// the recipient's credit land on different shards).
  [[nodiscard]] PoolFlows flows() const override;
  /// Every shard's own check, then audit::verify() over the summed ledger
  /// in kShardSum scope.  Locks all shards (index order) for a consistent
  /// cut.
  [[nodiscard]] Result<bool> check_conservation() const override
      HOTC_NO_THREAD_SAFETY_ANALYSIS;  // holds the lock_all() batch
  [[nodiscard]] std::vector<spec::RuntimeKey> keys() const override;
  [[nodiscard]] std::vector<PoolEntry> entries(
      const spec::RuntimeKey& key) const override;
  [[nodiscard]] bool at_capacity() const override;
  [[nodiscard]] const PoolLimits& limits() const override { return limits_; }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Which shard a key stripes to (exposed for tests and benches).
  [[nodiscard]] std::size_t shard_index(const spec::RuntimeKey& key) const {
    // shard_mask_ is count-1 for power-of-two counts (the default sizes):
    // same result as %, one AND instead of a division.
    const std::uint64_t h = key.hash();
    return shard_mask_ != 0
               ? static_cast<std::size_t>(h & shard_mask_)
               : static_cast<std::size_t>(h % shards_.size());
  }

  void clear() HOTC_NO_THREAD_SAFETY_ANALYSIS;  // holds the lock_all() batch

 private:
  // Padded so neighbouring shard locks never share a cache line.  The
  // shard mutexes share the kPoolShard rank band with the shard index as
  // the intra-band sequence: lock_all()'s fixed index order is therefore
  // machine-enforced, not a comment (see core/ranked_mutex.hpp).
  struct alignas(64) Shard {
    explicit Shard(PoolLimits limits, std::uint32_t index)
        : mu(LockRank::kPoolShard, index, "pool.shard"), pool(limits) {}
    mutable RankedMutex mu;
    /// Bumped (under mu) around every pool mutation; readers of
    /// multi-field state retry on it instead of taking mu.
    SeqLock seq;
    /// Mutated only under mu; the read side (num_available, stats, flows,
    /// the PoolView queries) goes through the pool's release-published
    /// atomics and this shard's seqlock — see the header comment.
    RuntimePool pool HOTC_WRITE_GUARDED_BY(mu);
    /// Misses short-circuited by the lock-free empty-key probe; the
    /// pool's own miss counter never sees them, so stats_snapshot() adds
    /// them back.  Monotonic, relaxed (ordering carried by seq reads).
    std::atomic<std::uint64_t> fast_misses{0};
  };

  [[nodiscard]] Shard& shard_for(const spec::RuntimeKey& key) const {
    return *shards_[shard_index(key)];
  }

  /// Lock every shard in index order (deadlock-free total order), with no
  /// allocation (RealHotC's trim calls select_victim() on every readmit
  /// over max_warm).  The returned unique_lock batch is invisible to
  /// clang's analysis; callers carry HOTC_NO_THREAD_SAFETY_ANALYSIS and
  /// hotc_analyze tracks the batch through its lock_all scope rule.
  [[nodiscard]] LockBatch lock_all() const HOTC_NO_THREAD_SAFETY_ANALYSIS;

  PoolLimits limits_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;  // count-1 when count is a power of two
  /// Evictions are recorded by whoever tears the victim down, which has
  /// no natural shard; one shared counter off the hot path is fine.
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hotc::pool
