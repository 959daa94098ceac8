#include "pool/pool.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "pool/audit.hpp"

namespace hotc::pool {

namespace {

/// HOTC_AUDIT builds: re-verify the whole pool after a mutation and abort
/// at the operation that broke it.  No-op (and inlined away) otherwise.
// hotc-analyze: cold-path (audit builds only; allocates on failure)
void audit_mutation(const RuntimePool& pool) {
#ifdef HOTC_AUDIT
  audit::enforce(pool.check_conservation(), "pool");
#else
  (void)pool;
#endif
}

}  // namespace

RuntimePool::RuntimePool(PoolLimits limits) : limits_(limits) {
  HOTC_ASSERT(limits_.max_live > 0);
  HOTC_ASSERT(limits_.memory_threshold > 0.0 &&
              limits_.memory_threshold <= 1.0);
}

RuntimePool::KeyBucket& RuntimePool::ensure_bucket(spec::KeyId id) {
  // Cold path: first sighting of a key grows the direct-index table.
  if (id >= buckets_.size()) buckets_.resize(id + 1);
  return buckets_[id];
}

std::uint32_t RuntimePool::new_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // Cold path: the slab grows until the pool's high-water mark, then every
  // mutation recycles slots through free_.
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void RuntimePool::unlink(std::uint32_t slot) {
  Record& rec = slab_[slot];
  const spec::KeyId key_id = rec.entry.key.id();
  KeyBucket& bucket = buckets_[key_id];
  if (rec.prev != kNil) {
    slab_[rec.prev].next = rec.next;
  } else {
    bucket.head = rec.next;
  }
  if (rec.next != kNil) {
    slab_[rec.next].prev = rec.prev;
  } else {
    bucket.tail = rec.prev;
  }
  --bucket.count;
  avail_.store(key_id, bucket.count);
  rec.prev = kNil;
  rec.next = kNil;
  rec.live = false;
  drop(live_);
  free_.push_back(slot);
}

std::optional<PoolEntry> RuntimePool::take_front(
    const spec::RuntimeKey& key) {
  const KeyBucket* bucket = bucket_for(key.id());
  if (bucket == nullptr || bucket->count == 0) return std::nullopt;
  const std::uint32_t slot = bucket->head;  // "reuse the first available"
  PoolEntry entry = slab_[slot].entry;
  const bool erased = index_.erase(entry.id);
  HOTC_ASSERT_MSG(erased, "pool index desync");
  unlink(slot);  // heap nodes for this residency go stale
  if (entry.paused && paused_.load(std::memory_order_relaxed) > 0) {
    drop(paused_);
  }
  return entry;
}

std::optional<PoolEntry> RuntimePool::acquire(const spec::RuntimeKey& key,
                                              TimePoint now) {
  (void)now;
  auto entry = take_front(key);
  if (entry.has_value()) {
    bump(leased_);  // a hit: stats() derives hits from the lease flows
    ++entry->reuse_count;
  } else {
    bump(stats_misses_);
  }
  audit_mutation(*this);
  return entry;
}

std::optional<PoolEntry> RuntimePool::acquire_for_donation(
    const spec::RuntimeKey& key, TimePoint now) {
  (void)now;
  auto entry = take_front(key);
  if (entry.has_value()) {
    // A donation is a lease (the conservation identity still closes) with
    // its own attribution; hits/misses and reuse_count stay untouched.
    bump(leased_);
    bump(donated_);
  }
  audit_mutation(*this);
  return entry;
}

void RuntimePool::add_available(const PoolEntry& entry, TimePoint now) {
  const std::uint64_t gen = ++next_gen_;
  ensure_bucket(entry.key.id());
  const std::uint32_t slot = new_slot();
  Record& rec = slab_[slot];
  rec.entry = entry;
  rec.entry.returned_at = now;
  if (rec.entry.respecialized) {
    // A converted donor re-enters the pool: score the conversion once and
    // store the entry as an ordinary residency of its new key.
    bump(respecialized_);
    rec.entry.respecialized = false;
  }
  if (rec.entry.restored) {
    // A revived snapshot re-enters the pool: score the restore once, same
    // protocol as respecialized above.
    bump(restored_);
    rec.entry.restored = false;
  }
  if (rec.entry.paused) bump(paused_);  // admitted still frozen

  // A container id is pooled at most once; a double-add supersedes the
  // stale residency so the id-keyed index stays coherent.  One probe does
  // both the admit and the duplicate check: insert() hands back the slot
  // the id previously mapped to.
  const std::uint32_t existing = index_.insert(entry.id, slot);
  if (existing != IdSlotMap::kNotFound) {
    // Same cleanup as remove(), minus the index erase — the mapping
    // already points at the new slot.
    if (slab_[existing].entry.paused &&
        paused_.load(std::memory_order_relaxed) > 0) {
      drop(paused_);
    }
    unlink(existing);
    bump(removed_);
  }

  KeyBucket& bucket = buckets_[entry.key.id()];
  rec.gen = gen;
  rec.prev = bucket.tail;
  rec.next = kNil;
  rec.live = true;
  if (bucket.tail != kNil) {
    slab_[bucket.tail].next = slot;
  } else {
    bucket.head = slot;
  }
  bucket.tail = slot;
  ++bucket.count;
  avail_.store(entry.key.id(), bucket.count);
  bump(live_);

  by_created_.push(AgeNode{rec.entry.created_at, gen, entry.id});
  by_returned_.push(AgeNode{rec.entry.returned_at, gen, entry.id});
  // Victim-cache maintenance: this residency's gen is the largest yet, so
  // it loses timestamp ties — only a strictly smaller timestamp dethrones
  // the memoised argmin (see VictimCache invariant).
  if (oldest_cache_.valid && rec.entry.created_at < oldest_cache_.at) {
    oldest_cache_ = VictimCache{true, rec.entry.created_at, gen, entry.id};
  }
  if (coldest_cache_.valid && rec.entry.returned_at < coldest_cache_.at) {
    coldest_cache_ = VictimCache{true, rec.entry.returned_at, gen, entry.id};
  }
  bump(admitted_);
  maybe_compact();
  audit_mutation(*this);
}

bool RuntimePool::erase(const spec::RuntimeKey& key,
                        engine::ContainerId id) {
  const std::uint32_t slot = index_.find(id);
  if (slot == IdSlotMap::kNotFound || !(slab_[slot].entry.key == key)) {
    return false;
  }
  if (slab_[slot].entry.paused &&
      paused_.load(std::memory_order_relaxed) > 0) {
    drop(paused_);
  }
  index_.erase(id);
  unlink(slot);
  bump(removed_);
  return true;
}

bool RuntimePool::remove(const spec::RuntimeKey& key,
                         engine::ContainerId id) {
  const bool out = erase(key, id);
  audit_mutation(*this);
  return out;
}

bool RuntimePool::remove_for_checkpoint(const spec::RuntimeKey& key,
                                        engine::ContainerId id) {
  const bool out = erase(key, id);
  if (out) bump(checkpointed_);  // sub-flow of the removal just counted
  audit_mutation(*this);
  return out;
}

bool RuntimePool::mark_paused(const spec::RuntimeKey& key,
                              engine::ContainerId id) {
  const std::uint32_t slot = index_.find(id);
  if (slot == IdSlotMap::kNotFound || !(slab_[slot].entry.key == key)) {
    return false;
  }
  if (slab_[slot].entry.paused) return false;
  slab_[slot].entry.paused = true;
  bump(paused_);
  audit_mutation(*this);
  return true;
}

std::optional<PoolEntry> RuntimePool::victim_from(AgeHeap& heap,
                                                  VictimCache& cache) const {
  if (cache.valid) {
    const std::uint32_t slot = index_.find(cache.id);
    if (slot != IdSlotMap::kNotFound && slab_[slot].gen == cache.gen) {
      return slab_[slot].entry;  // memoised argmin still pooled
    }
    cache.valid = false;  // residency ended: fall back to the heap scan
  }
  while (!heap.empty()) {
    const AgeNode& top = heap.top();
    const std::uint32_t slot = index_.find(top.id);
    if (slot != IdSlotMap::kNotFound && slab_[slot].gen == top.gen) {
      cache = VictimCache{true, top.at, top.gen, top.id};
      return slab_[slot].entry;
    }
    heap.pop();  // stale: acquired, removed or re-added since pushed
  }
  return std::nullopt;
}

void RuntimePool::maybe_compact() {
  // Each add pushes one node per heap and each prune pops stale ones
  // lazily; rebuild once stale nodes outnumber live entries 2:1 so the
  // heaps stay O(total_available) sized.
  const std::size_t live =
      static_cast<std::size_t>(live_.load(std::memory_order_relaxed));
  if (by_created_.size() <= 2 * live + kCompactSlack) return;
  // Refill the node vectors in place: clear() keeps their capacity, so
  // steady-state compaction allocates nothing.
  by_created_.nodes.clear();
  by_returned_.nodes.clear();
  for (const Record& rec : slab_) {
    if (!rec.live) continue;
    by_created_.nodes.push_back(
        AgeNode{rec.entry.created_at, rec.gen, rec.entry.id});
    by_returned_.nodes.push_back(
        AgeNode{rec.entry.returned_at, rec.gen, rec.entry.id});
  }
  by_created_.sorted_ = 0;  // re-heapified at the next victim selection
  by_returned_.sorted_ = 0;
}

std::optional<PoolEntry> RuntimePool::select_victim(EvictionPolicy policy,
                                                    Rng* rng) const {
  const std::size_t live = total_available();
  if (live == 0) return std::nullopt;

  if (policy == EvictionPolicy::kRandom) {
    HOTC_ASSERT_MSG(rng != nullptr, "random eviction needs an Rng");
    return entry_at(rng->index(live));
  }
  return policy == EvictionPolicy::kOldestFirst
             ? victim_from(by_created_, oldest_cache_)
             : victim_from(by_returned_, coldest_cache_);
}

std::optional<PoolEntry> RuntimePool::entry_at(std::size_t index) const {
  for (const KeyBucket& bucket : buckets_) {
    if (bucket.count == 0) continue;
    if (index >= bucket.count) {
      index -= bucket.count;
      continue;
    }
    std::uint32_t slot = bucket.head;
    while (index > 0 && slot != kNil) {
      slot = slab_[slot].next;
      --index;
    }
    HOTC_ASSERT_MSG(slot != kNil, "pool index desync");
    return slab_[slot].entry;
  }
  return std::nullopt;
}

std::size_t RuntimePool::num_available(const spec::RuntimeKey& key) const {
  // Lock-free: reads the chunked atomic mirror, not the bucket table
  // (which may be mid-resize under the writer).
  return avail_.load(key.id());
}

std::vector<spec::RuntimeKey> RuntimePool::keys() const {
  std::vector<spec::RuntimeKey> out;
  for (spec::KeyId id = 0; id < buckets_.size(); ++id) {
    if (buckets_[id].count > 0) out.push_back(spec::RuntimeKey::from_id(id));
  }
  return out;
}

std::vector<PoolEntry> RuntimePool::entries(
    const spec::RuntimeKey& key) const {
  const KeyBucket* bucket = bucket_for(key.id());
  if (bucket == nullptr || bucket->count == 0) return {};
  std::vector<PoolEntry> out;
  out.reserve(bucket->count);
  for (std::uint32_t slot = bucket->head; slot != kNil;
       slot = slab_[slot].next) {
    out.push_back(slab_[slot].entry);
  }
  return out;
}

void RuntimePool::clear() {
  const std::uint64_t live = live_.load(std::memory_order_relaxed);
  bump(removed_, live);  // every resident container leaves
  for (spec::KeyId id = 0; id < buckets_.size(); ++id) {
    if (buckets_[id].count > 0) avail_.store(id, 0);
  }
  slab_.clear();
  free_.clear();
  buckets_.clear();
  index_.clear();
  drop(live_, live);
  by_created_ = AgeHeap{};
  by_returned_ = AgeHeap{};
  oldest_cache_ = VictimCache{};
  coldest_cache_ = VictimCache{};
  drop(paused_, paused_.load(std::memory_order_relaxed));
  audit_mutation(*this);
}

PoolFlows RuntimePool::flows() const {
  PoolFlows out;
  out.admitted = admitted_.load(std::memory_order_acquire);
  out.leased = leased_.load(std::memory_order_acquire);
  out.removed = removed_.load(std::memory_order_acquire);
  out.donated = donated_.load(std::memory_order_acquire);
  out.respecialized = respecialized_.load(std::memory_order_acquire);
  out.checkpointed = checkpointed_.load(std::memory_order_acquire);
  out.restored = restored_.load(std::memory_order_acquire);
  out.pooled = total_available();
  out.paused = paused_count();
  return out;
}

// hotc-analyze: cold-path (diagnostic invariant sweep; audit builds + tests)
Result<bool> RuntimePool::check_conservation() const {
  Result<bool> ledger = audit::verify(flows());
  if (!ledger.ok()) return ledger;
  const std::size_t live = total_available();
  // Structural: the per-key FIFO lists, the slab live flags and the
  // container-id index are three views of the same set, and paused_
  // counts exactly the paused entries.
  std::size_t listed = 0;
  std::size_t paused_seen = 0;
  for (spec::KeyId key_id = 0; key_id < buckets_.size(); ++key_id) {
    const KeyBucket& bucket = buckets_[key_id];
    std::size_t walked = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t slot = bucket.head; slot != kNil;
         slot = slab_[slot].next) {
      const Record& rec = slab_[slot];
      if (!rec.live || rec.entry.key.id() != key_id || rec.prev != prev) {
        return make_error<bool>(
            "pool.conservation",
            "per-key list corrupt at slot " + std::to_string(slot));
      }
      if (index_.find(rec.entry.id) != slot) {
        return make_error<bool>(
            "pool.conservation",
            "listed container " + std::to_string(rec.entry.id) +
                " missing from the id index or keyed inconsistently");
      }
      if (rec.entry.paused) ++paused_seen;
      prev = slot;
      ++walked;
    }
    if (walked != bucket.count || bucket.tail != prev ||
        avail_.load(key_id) != bucket.count) {
      return make_error<bool>(
          "pool.conservation",
          "bucket count " + std::to_string(bucket.count) + " != " +
              std::to_string(walked) + " walked entries (avail mirror " +
              std::to_string(avail_.load(key_id)) + ")");
    }
    listed += walked;
  }
  if (listed != live || index_.size() != live) {
    return make_error<bool>(
        "pool.conservation",
        "lists hold " + std::to_string(listed) + " containers, live " +
            std::to_string(live) + ", index " +
            std::to_string(index_.size()));
  }
  // Every slab slot is either live or on the free list — no leaks.
  if (live + free_.size() != slab_.size()) {
    return make_error<bool>(
        "pool.conservation",
        "slab " + std::to_string(slab_.size()) + " != live " +
            std::to_string(live) + " + free " +
            std::to_string(free_.size()));
  }
  if (paused_seen != paused_count()) {
    return make_error<bool>(
        "pool.conservation",
        "paused counter " + std::to_string(paused_count()) + " != " +
            std::to_string(paused_seen) + " paused entries");
  }
  // The lazy heaps never hold fewer nodes than there are live residencies
  // (stale nodes are pruned, live ones only replaced on compaction).
  if (by_created_.size() < live || by_returned_.size() < live) {
    return make_error<bool>("pool.conservation",
                            "eviction heap lost a live residency");
  }
  return true;
}

}  // namespace hotc::pool
