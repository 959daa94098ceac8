#include "pool/sharded_pool.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <thread>

#include "core/assert.hpp"
#include "pool/audit.hpp"

namespace hotc::pool {

ShardedRuntimePool::ShardedRuntimePool(PoolLimits limits,
                                       std::size_t shard_count)
    : limits_(limits) {
  if (shard_count == 0) shard_count = std::thread::hardware_concurrency();
  shard_count = std::clamp<std::size_t>(shard_count, 1, kMaxShards);
  if ((shard_count & (shard_count - 1)) == 0) {
    // h % n == h & (n-1) for powers of two: identical striping, no div.
    shard_mask_ = static_cast<std::uint64_t>(shard_count - 1);
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(limits, static_cast<std::uint32_t>(i)));
  }
}

std::optional<PoolEntry> ShardedRuntimePool::acquire(
    const spec::RuntimeKey& key, TimePoint now) {
  Shard& shard = shard_for(key);
  // Fast miss: the per-key avail count is a lock-free atomic mirror.  A
  // concurrent add_available may race this probe; the miss then simply
  // linearises before the add — exactly what an unlucky lock acquisition
  // order would have produced.  Single-threaded counts are unchanged
  // (avail == 0 iff the locked path would miss).
  if (shard.pool.num_available(key) == 0) {
    shard.fast_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const RankedGuard lock(shard.mu);
  const SeqLock::WriteGuard guard(shard.seq);
  return shard.pool.acquire(key, now);
}

std::optional<PoolEntry> ShardedRuntimePool::acquire_for_donation(
    const spec::RuntimeKey& key, TimePoint now) {
  Shard& shard = shard_for(key);
  // Donor-registry liveness probes overwhelmingly find nothing; the
  // lock-free empty check keeps them off the shard mutex entirely.
  // (No miss is recorded: donation probes never touch hit/miss stats.)
  if (shard.pool.num_available(key) == 0) return std::nullopt;
  const RankedGuard lock(shard.mu);
  const SeqLock::WriteGuard guard(shard.seq);
  return shard.pool.acquire_for_donation(key, now);
}

void ShardedRuntimePool::add_available(const PoolEntry& entry,
                                       TimePoint now) {
  Shard& shard = shard_for(entry.key);
  const RankedGuard lock(shard.mu);
  const SeqLock::WriteGuard guard(shard.seq);
  shard.pool.add_available(entry, now);
}

bool ShardedRuntimePool::remove(const spec::RuntimeKey& key,
                                engine::ContainerId id) {
  Shard& shard = shard_for(key);
  const RankedGuard lock(shard.mu);
  const SeqLock::WriteGuard guard(shard.seq);
  return shard.pool.remove(key, id);
}

bool ShardedRuntimePool::remove_for_checkpoint(const spec::RuntimeKey& key,
                                               engine::ContainerId id) {
  Shard& shard = shard_for(key);
  const RankedGuard lock(shard.mu);
  const SeqLock::WriteGuard guard(shard.seq);
  return shard.pool.remove_for_checkpoint(key, id);
}

bool ShardedRuntimePool::mark_paused(const spec::RuntimeKey& key,
                                     engine::ContainerId id) {
  Shard& shard = shard_for(key);
  const RankedGuard lock(shard.mu);
  const SeqLock::WriteGuard guard(shard.seq);
  return shard.pool.mark_paused(key, id);
}

LockBatch ShardedRuntimePool::lock_all() const {
  LockBatch locks;
  for (const auto& shard : shards_) {
    // Same-band shard locks are taken in ascending shard-index order,
    // which the runtime lock-rank auditor verifies on every batch.
    // hotc-analyze: allow(lock-order): ascending shard-index order
    locks.emplace_back(shard->mu);
  }
  return locks;
}

std::optional<PoolEntry> ShardedRuntimePool::select_victim(
    EvictionPolicy policy, Rng* rng) const {
  const auto locks = lock_all();

  if (policy == EvictionPolicy::kRandom) {
    HOTC_ASSERT_MSG(rng != nullptr, "random eviction needs an Rng");
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->pool.total_available();
    if (total == 0) return std::nullopt;
    // One uniform draw over the global occupancy, then index into the
    // owning shard: each pooled container is equally likely.
    std::size_t target = rng->index(total);
    for (const auto& shard : shards_) {
      const std::size_t n = shard->pool.total_available();
      if (target < n) return shard->pool.entry_at(target);
      target -= n;
    }
    return std::nullopt;  // unreachable
  }

  std::optional<PoolEntry> best;
  for (const auto& shard : shards_) {
    auto candidate = shard->pool.select_victim(policy);
    if (!candidate.has_value()) continue;
    const bool older =
        !best.has_value() ||
        (policy == EvictionPolicy::kOldestFirst
             ? candidate->created_at < best->created_at
             : candidate->returned_at < best->returned_at);
    if (older) best = std::move(candidate);
  }
  return best;
}

std::size_t ShardedRuntimePool::num_available(
    const spec::RuntimeKey& key) const {
  // Lock-free: single atomic load of the owning pool's avail mirror.
  return shard_for(key).pool.num_available(key);
}

std::size_t ShardedRuntimePool::total_available() const {
  // Lock-free: one release-published counter per shard.  Shards are
  // sampled at slightly different instants (see pool_view.hpp).
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pool.total_available();
  return total;
}

std::size_t ShardedRuntimePool::paused_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pool.paused_count();
  return total;
}

PoolStats ShardedRuntimePool::stats_snapshot() const {
  // Lock-free: each shard's four counters are read as one consistent cut
  // under its seqlock; fast misses (short-circuited before the pool saw
  // them) are folded back into the miss count.
  PoolStats out;
  for (const auto& shard : shards_) {
    const PoolStats s =
        shard->seq.read([&shard] { return shard->pool.stats(); });
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.returns += s.returns;
    out.misses += shard->fast_misses.load(std::memory_order_relaxed);
  }
  out.evictions += evictions_.load(std::memory_order_relaxed);
  return out;
}

PoolFlows ShardedRuntimePool::flows() const {
  PoolFlows out;
  for (const auto& shard : shards_) {
    out += shard->seq.read([&shard] { return shard->pool.flows(); });
  }
  return out;
}

std::vector<spec::RuntimeKey> ShardedRuntimePool::keys() const {
  std::vector<spec::RuntimeKey> out;
  for (const auto& shard : shards_) {
    const RankedGuard lock(shard->mu);
    auto shard_keys = shard->pool.keys();
    out.insert(out.end(), std::make_move_iterator(shard_keys.begin()),
               std::make_move_iterator(shard_keys.end()));
  }
  return out;
}

std::vector<PoolEntry> ShardedRuntimePool::entries(
    const spec::RuntimeKey& key) const {
  Shard& shard = shard_for(key);
  const RankedGuard lock(shard.mu);
  return shard.pool.entries(key);
}

bool ShardedRuntimePool::at_capacity() const {
  return total_available() >= limits_.max_live;
}

void ShardedRuntimePool::clear() {
  const auto locks = lock_all();
  for (const auto& shard : shards_) {
    const SeqLock::WriteGuard guard(shard->seq);
    shard->pool.clear();
  }
}

// hotc-analyze: cold-path (diagnostic invariant sweep; audit builds + tests)
Result<bool> ShardedRuntimePool::check_conservation() const {
  const auto locks = lock_all();
  PoolFlows sum;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const RuntimePool& p = shards_[i]->pool;
    const Result<bool> ok = p.check_conservation();
    if (!ok.ok()) {
      return make_error<bool>(
          "pool.conservation",
          "shard " + std::to_string(i) + ": " + ok.error().message);
    }
    sum += p.flows();
  }
  // Per-shard identities imply the global ones except respecialized <=
  // donated; verify the sum anyway so a future cross-shard migration path
  // cannot silently break it.
  Result<bool> ok = audit::verify(sum, audit::Scope::kShardSum);
  if (!ok.ok()) {
    return make_error<bool>("pool.conservation",
                            "global: " + ok.error().message);
  }
  return true;
}

}  // namespace hotc::pool
