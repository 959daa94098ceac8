#include "snapshot/checkpoint_store.hpp"

#include <algorithm>
#include <bit>

namespace hotc::snapshot {
namespace {

constexpr std::size_t kDefaultStripes = 8;

/// Benefit density: cold-start seconds saved per byte of disk.  The
/// eviction policy removes the snapshot the store would miss least.
double score(const SnapshotMeta& meta) {
  const double saved = meta.cold_estimate_s - meta.restore_estimate_s;
  const double bytes = meta.bytes > 0 ? static_cast<double>(meta.bytes) : 1.0;
  return saved / bytes;
}

}  // namespace

CheckpointStore::CheckpointStore(Options options) : options_(options) {
  const std::size_t requested =
      options_.stripe_count == 0 ? kDefaultStripes : options_.stripe_count;
  const std::size_t count =
      std::bit_ceil(std::min(requested, LockBatch::kCapacity));
  stripe_mask_ = count - 1;
  stripes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stripes_.push_back(
        std::make_unique<Stripe>(static_cast<std::uint32_t>(i)));
  }
}

LockBatch CheckpointStore::lock_all() const {
  LockBatch locks;
  for (const auto& stripe : stripes_) {
    // hotc-analyze: allow(lock-order): ascending stripe-index order
    locks.emplace_back(stripe->mu);
  }
  return locks;
}

SnapshotMeta CheckpointStore::remove_slot(Stripe& stripe,
                                          std::uint32_t slot) {
  Slot& victim = stripe.slab[slot];
  const SnapshotMeta meta = victim.meta;

  // Unlink from the key's newest-first chain.
  const std::uint32_t head = stripe.newest_for_key.find(meta.key);
  if (head == slot) {
    if (victim.next_same_key == kNone) {
      stripe.newest_for_key.erase(meta.key);
    } else {
      stripe.newest_for_key.insert(meta.key, victim.next_same_key);
    }
  } else if (head != IdSlotMap::kNotFound) {
    std::uint32_t prev = head;
    while (prev != kNone && stripe.slab[prev].next_same_key != slot) {
      prev = stripe.slab[prev].next_same_key;
    }
    if (prev != kNone) {
      stripe.slab[prev].next_same_key = victim.next_same_key;
    }
  }

  victim.live = false;
  victim.next_same_key = kNone;
  stripe.free_slots.push_back(slot);  // capacity reserved at insert time

  // Tenant accounting.
  const std::uint32_t t = stripe.tenant_index.find(meta.tenant);
  if (t != IdSlotMap::kNotFound) {
    TenantBytes& tb = stripe.tenants[t];
    tb.bytes -= meta.bytes;
    tb.entries -= 1;
  }

  bytes_.fetch_sub(static_cast<std::uint64_t>(meta.bytes),
                   std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  return meta;
}

void CheckpointStore::account_insert(Stripe& stripe,
                                     const SnapshotMeta& meta) {
  std::uint32_t t = stripe.tenant_index.find(meta.tenant);
  if (t == IdSlotMap::kNotFound) {
    t = static_cast<std::uint32_t>(stripe.tenants.size());
    stripe.tenants.push_back(TenantBytes{meta.tenant, 0, 0});
    stripe.tenant_index.insert(meta.tenant, t);
  }
  TenantBytes& tb = stripe.tenants[t];
  tb.bytes += meta.bytes;
  tb.entries += 1;

  bytes_.fetch_add(static_cast<std::uint64_t>(meta.bytes),
                   std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

CheckpointStore::Victim CheckpointStore::pick_victim(
    std::uint64_t tenant_filter, bool filter_by_tenant) const {
  Victim best;
  double best_score = 0.0;
  TimePoint best_access = kZeroDuration;
  for (const auto& stripe : stripes_) {
    for (std::uint32_t i = 0; i < stripe->slab.size(); ++i) {
      const Slot& slot = stripe->slab[i];
      if (!slot.live) continue;
      if (filter_by_tenant && slot.meta.tenant != tenant_filter) continue;
      const double s = score(slot.meta);
      const bool better =
          best.stripe == nullptr || s < best_score ||
          (s == best_score && slot.meta.last_access < best_access);
      if (better) {
        best.stripe = stripe.get();
        best.slot = i;
        best_score = s;
        best_access = slot.meta.last_access;
      }
    }
  }
  return best;
}

CheckpointStore::AdmitResult CheckpointStore::admit(const SnapshotMeta& meta,
                                                    TimePoint now) {
  AdmitResult result;
  // A snapshot that cannot fit even alone is rejected up front — evicting
  // the whole store for it would trade many saved cold starts for one.
  const bool oversized =
      meta.bytes > options_.capacity_bytes ||
      (options_.per_key_bytes > 0 && meta.bytes > options_.per_key_bytes) ||
      (options_.per_tenant_bytes > 0 &&
       meta.bytes > options_.per_tenant_bytes);
  if (oversized || meta.key == spec::kNoKeyId) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  const auto locks = lock_all();
  Stripe& home = stripe_for(meta.key);

  // Per-key quota: evict the key's *oldest* snapshots (chain tail) first —
  // within one key the newest image is strictly the most useful.
  if (options_.per_key_bytes > 0) {
    auto chain_bytes = [&home, &meta]() {
      Bytes sum = 0;
      std::uint32_t i = home.newest_for_key.find(meta.key);
      while (i != IdSlotMap::kNotFound && i != kNone) {
        sum += home.slab[i].meta.bytes;
        i = home.slab[i].next_same_key;
      }
      return sum;
    };
    while (chain_bytes() + meta.bytes > options_.per_key_bytes) {
      std::uint32_t tail = home.newest_for_key.find(meta.key);
      while (home.slab[tail].next_same_key != kNone) {
        tail = home.slab[tail].next_same_key;
      }
      result.evicted.push_back(remove_slot(home, tail));
    }
  }

  // Per-tenant quota: evict the tenant's lowest-benefit-density entry.
  if (options_.per_tenant_bytes > 0) {
    auto tenant_bytes = [this, &meta]() {
      Bytes sum = 0;
      for (const auto& stripe : stripes_) {
        const std::uint32_t t = stripe->tenant_index.find(meta.tenant);
        if (t != IdSlotMap::kNotFound) sum += stripe->tenants[t].bytes;
      }
      return sum;
    };
    while (tenant_bytes() + meta.bytes > options_.per_tenant_bytes) {
      const Victim v = pick_victim(meta.tenant, true);
      if (v.stripe == nullptr) break;  // unreachable: quota > meta.bytes
      result.evicted.push_back(remove_slot(*v.stripe, v.slot));
    }
  }

  // Global disk budget: evict lowest benefit density store-wide.
  while (total_bytes() + meta.bytes > options_.capacity_bytes) {
    const Victim v = pick_victim(0, false);
    if (v.stripe == nullptr) break;  // store empty, meta fits by precheck
    result.evicted.push_back(remove_slot(*v.stripe, v.slot));
  }

  // Insert as the key's newest snapshot.
  std::uint32_t slot;
  if (!home.free_slots.empty()) {
    slot = home.free_slots.back();
    home.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(home.slab.size());
    home.slab.push_back(Slot{});
    // Keep the free list's capacity >= slab size so the hot take() path
    // can push a freed slot without growing the vector.
    home.free_slots.reserve(home.slab.capacity());
  }
  Slot& stored = home.slab[slot];
  stored.meta = meta;
  stored.meta.last_access = now;
  stored.live = true;
  const std::uint32_t prev_head = home.newest_for_key.insert(meta.key, slot);
  stored.next_same_key =
      prev_head == IdSlotMap::kNotFound ? kNone : prev_head;
  account_insert(home, stored.meta);

  result.accepted = true;
  demotes_.fetch_add(1, std::memory_order_relaxed);
  const auto evicted_n = static_cast<std::uint64_t>(result.evicted.size());
  if (evicted_n > 0) {
    evictions_.fetch_add(evicted_n, std::memory_order_relaxed);
  }
  return result;
}

std::optional<SnapshotMeta> CheckpointStore::take(spec::KeyId key,
                                                  TimePoint now) {
  Stripe& stripe = stripe_for(key);
  const RankedGuard lock(stripe.mu);
  const std::uint32_t head = stripe.newest_for_key.find(key);
  if (head == IdSlotMap::kNotFound) return std::nullopt;
  SnapshotMeta meta = remove_slot(stripe, head);
  meta.last_access = now;
  restores_.fetch_add(1, std::memory_order_relaxed);
  return meta;
}

std::optional<SnapshotMeta> CheckpointStore::peek(spec::KeyId key,
                                                  TimePoint now) {
  Stripe& stripe = stripe_for(key);
  const RankedGuard lock(stripe.mu);
  const std::uint32_t head = stripe.newest_for_key.find(key);
  if (head == IdSlotMap::kNotFound) return std::nullopt;
  Slot& slot = stripe.slab[head];
  slot.meta.last_access = now;
  return slot.meta;
}

std::vector<SnapshotMeta> CheckpointStore::drop_container(
    std::uint64_t container) {
  std::vector<SnapshotMeta> dropped;
  const auto locks = lock_all();
  for (const auto& stripe : stripes_) {
    for (std::uint32_t i = 0; i < stripe->slab.size(); ++i) {
      Slot& slot = stripe->slab[i];
      if (slot.live && slot.meta.container == container) {
        dropped.push_back(remove_slot(*stripe, i));
      }
    }
  }
  if (!dropped.empty()) {
    evictions_.fetch_add(static_cast<std::uint64_t>(dropped.size()),
                         std::memory_order_relaxed);
  }
  return dropped;
}

Bytes CheckpointStore::key_bytes(spec::KeyId key) const {
  const Stripe& stripe = stripe_for(key);
  const RankedGuard lock(stripe.mu);
  Bytes sum = 0;
  std::uint32_t i = stripe.newest_for_key.find(key);
  while (i != IdSlotMap::kNotFound && i != kNone) {
    sum += stripe.slab[i].meta.bytes;
    i = stripe.slab[i].next_same_key;
  }
  return sum;
}

std::vector<CheckpointStore::TenantOccupancy>
CheckpointStore::tenant_occupancy() const {
  std::vector<TenantOccupancy> merged;
  const auto locks = lock_all();
  for (const auto& stripe : stripes_) {
    for (const TenantBytes& tb : stripe->tenants) {
      if (tb.entries == 0) continue;
      auto it = std::find_if(merged.begin(), merged.end(),
                             [&tb](const TenantOccupancy& o) {
                               return o.tenant == tb.tenant;
                             });
      if (it == merged.end()) {
        merged.push_back(TenantOccupancy{tb.tenant, tb.bytes, tb.entries});
      } else {
        it->bytes += tb.bytes;
        it->entries += tb.entries;
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TenantOccupancy& a, const TenantOccupancy& b) {
              return a.bytes > b.bytes;
            });
  return merged;
}

}  // namespace hotc::snapshot
