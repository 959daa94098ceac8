// CheckpointStore: the disk-resident middle tier between "live" and "cold".
//
// The runtime pool is binary — a miss pays the full cold start and every
// retire/evict decision destroys initialized state that was expensive to
// build.  The store holds CRIU-style snapshot metadata for demoted
// runtimes (the engine keeps the Checkpointed container itself; the store
// is the *index* the controller consults on a miss), so the miss path
// becomes pool-hit → donor-respec → checkpoint-restore → cold.
//
// Capacity economics (HotSwap + Caching Aided Multi-Tenant Serverless,
// PAPERS.md): the store is bounded by a global disk budget plus per-key
// and per-tenant byte quotas so a shared checkpoint cache cannot be
// monopolized by one hot function or one tenant's image family.  When an
// admission does not fit, the store evicts the entries with the lowest
// benefit density — (cold_estimate − restore_estimate) / bytes, i.e. the
// cold-start seconds a snapshot saves per byte of disk it occupies — LRU
// breaking ties, and returns the victims so the caller can discard the
// underlying engine state.
//
// Memory model (PR-6): interned spec::KeyId keys, flat slab + free-list
// slots, IdSlotMap indexes — the consuming take() lookup on the request
// miss path allocates nothing.  Concurrency: lock-striped by KeyId with a
// dedicated rank band (kSnapshotStore = 55, see core/ranked_mutex.hpp's
// band table): a pool-shard holder (50) may still demote into the store,
// and a stripe holder may intern (85) and log (90).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/flat_map.hpp"
#include "core/ranked_mutex.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "spec/key_interner.hpp"

namespace hotc::snapshot {

/// One demoted runtime's snapshot: everything the tiering policy needs to
/// decide restore-vs-cold without touching the engine.  Trivially
/// copyable — take() hands it back by value, no allocation.
struct SnapshotMeta {
  spec::KeyId key = spec::kNoKeyId;
  std::uint64_t tenant = 0;      // image-family hash (tenant_of())
  std::uint64_t container = 0;   // engine::ContainerId parked Checkpointed
  Bytes bytes = 0;               // on-disk dump size
  TimePoint created_at = kZeroDuration;
  TimePoint last_access = kZeroDuration;
  double restore_estimate_s = 0.0;  // modelled restore latency
  double cold_estimate_s = 0.0;     // the cold start it would replace
};

class CheckpointStore {
 public:
  struct Options {
    /// Global disk budget for all snapshots (the store's hard bound).
    Bytes capacity_bytes = gib(4);
    /// Per-runtime-key byte quota; 0 = bounded by capacity only.
    Bytes per_key_bytes = 0;
    /// Per-tenant (image family) byte quota; 0 = bounded by capacity only.
    Bytes per_tenant_bytes = 0;
    /// Lock stripes (rounded up to a power of two, at most
    /// LockBatch::kCapacity); 0 picks the default.
    std::size_t stripe_count = 0;
  };

  /// Outcome of one admit(): whether the snapshot was stored, and every
  /// victim evicted to make room.  The caller owns discarding the
  /// victims' engine-side state (discard_checkpointed).
  struct AdmitResult {
    bool accepted = false;
    std::vector<SnapshotMeta> evicted;
  };

  CheckpointStore() : CheckpointStore(Options{}) {}
  explicit CheckpointStore(Options options);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Admit a demoted runtime's snapshot, evicting lowest-benefit-density
  /// entries (LRU among equals) until the global budget and the key's and
  /// tenant's quotas all hold.  Rejects (accepted == false) when the
  /// snapshot cannot fit even after evicting — e.g. larger than a quota —
  /// in which case `evicted` is empty and nothing changed.  Cold path:
  /// locks every stripe in index order.
  AdmitResult admit(const SnapshotMeta& meta, TimePoint now)
      HOTC_NO_THREAD_SAFETY_ANALYSIS;  // holds the lock_all() batch

  /// Consume the newest snapshot for `key` (miss-path restore).  One
  /// stripe lock, no allocation — this is the hot lookup the request path
  /// pays before falling through to a cold start.
  [[nodiscard]] std::optional<SnapshotMeta> take(spec::KeyId key,
                                                 TimePoint now);

  /// Non-consuming variant of take(): the newest snapshot for `key`, if
  /// any, with its last_access refreshed.  Same hot-path contract.
  [[nodiscard]] std::optional<SnapshotMeta> peek(spec::KeyId key,
                                                 TimePoint now);

  /// Drop every snapshot whose container id matches (the engine-side
  /// container died out from under the store).  Returns the removed metas.
  std::vector<SnapshotMeta> drop_container(std::uint64_t container)
      HOTC_NO_THREAD_SAFETY_ANALYSIS;  // holds the lock_all() batch

  // --- introspection (lock-free unless noted) ---------------------------
  [[nodiscard]] Bytes total_bytes() const {
    return static_cast<Bytes>(bytes_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Bytes capacity_bytes() const {
    return options_.capacity_bytes;
  }
  [[nodiscard]] std::uint64_t demotes() const {
    return demotes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t restores() const {
    return restores_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

  /// Bytes stored for one key right now (locks the key's stripe).
  [[nodiscard]] Bytes key_bytes(spec::KeyId key) const;

  struct TenantOccupancy {
    std::uint64_t tenant = 0;
    Bytes bytes = 0;
    std::size_t entries = 0;
  };
  /// Per-tenant occupancy across all stripes (cold: locks every stripe).
  [[nodiscard]] std::vector<TenantOccupancy> tenant_occupancy() const
      HOTC_NO_THREAD_SAFETY_ANALYSIS;  // holds the lock_all() batch

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Slot {
    SnapshotMeta meta;
    std::uint32_t next_same_key = kNone;  // next-older snapshot, same key
    bool live = false;
  };

  struct TenantBytes {
    std::uint64_t tenant = 0;
    Bytes bytes = 0;
    std::size_t entries = 0;
  };

  struct alignas(64) Stripe {
    explicit Stripe(std::uint32_t index)
        : mu(LockRank::kSnapshotStore, index, "snapshot.store") {}
    mutable RankedMutex mu;
    std::vector<Slot> slab HOTC_GUARDED_BY(mu);
    std::vector<std::uint32_t> free_slots HOTC_GUARDED_BY(mu);
    /// KeyId -> slab index of the key's newest snapshot.
    IdSlotMap newest_for_key HOTC_GUARDED_BY(mu);
    /// tenant hash -> index into `tenants`.
    IdSlotMap tenant_index HOTC_GUARDED_BY(mu);
    std::vector<TenantBytes> tenants HOTC_GUARDED_BY(mu);
  };

  [[nodiscard]] Stripe& stripe_for(spec::KeyId key) const {
    return *stripes_[key & stripe_mask_];
  }

  /// Unlink + free one slot; updates indexes, byte/entry mirrors and the
  /// eviction/restore accounting the caller names.
  SnapshotMeta remove_slot(Stripe& stripe, std::uint32_t slot)
      HOTC_REQUIRES(stripe.mu);
  void account_insert(Stripe& stripe, const SnapshotMeta& meta)
      HOTC_REQUIRES(stripe.mu);

  /// Lowest-benefit-density victim across all stripes (LRU among equals),
  /// optionally restricted to one tenant.  Caller holds every stripe lock.
  struct Victim {
    Stripe* stripe = nullptr;
    std::uint32_t slot = kNone;
  };
  [[nodiscard]] Victim pick_victim(std::uint64_t tenant_filter,
                                   bool filter_by_tenant) const
      HOTC_NO_THREAD_SAFETY_ANALYSIS;

  /// All stripe locks in index order (the in-band increasing-sequence
  /// rule, same pattern as ShardedRuntimePool::lock_all), with no
  /// allocation.
  [[nodiscard]] LockBatch lock_all() const;

  Options options_;
  std::uint64_t stripe_mask_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Lock-free totals for introspection (and the owner's metrics).
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::uint64_t> demotes_{0};
  std::atomic<std::uint64_t> restores_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace hotc::snapshot
