// Read-only pool interface: the seam between pool implementations and
// their observers (controller introspection, metrics collectors, the cluster
// warm directory, benches, the conservation audit).
//
// Both the single-threaded RuntimePool (HotCController's pool) and the
// lock-striped ShardedRuntimePool (RealHotC's warm set) implement this,
// so the simulated path and the real-execution path share one bookkeeping
// implementation and one reporting surface.  The conservation ledger is
// read the same way on both: flows() returns the one ledger record
// (PoolFlows) and check_conservation() verifies it through the one
// audit::verify() plus each pool's structural invariants.
//
// Snapshot semantics: every method returns a *snapshot*.  On RuntimePool
// the snapshot is exact (single-threaded).  On ShardedRuntimePool,
// per-key queries lock the one shard that owns the key and are exact for
// that key; aggregates (total_available, paused_count, stats_snapshot,
// flows, keys) sum per-shard counters one shard at a time, so under
// concurrent mutation they are weakly consistent — each shard's
// contribution is internally consistent, but shards are sampled at
// slightly different instants.  Quiescent reads are exact.
#pragma once

#include <cstddef>
#include <vector>

#include "core/result.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::pool {

struct PoolEntry;
struct PoolStats;
struct PoolLimits;
struct PoolFlows;

class PoolView {
 public:
  virtual ~PoolView() = default;

  /// Available containers for one runtime key (exact per key).
  [[nodiscard]] virtual std::size_t num_available(
      const spec::RuntimeKey& key) const = 0;

  /// Available containers across all keys (snapshot; see header comment).
  [[nodiscard]] virtual std::size_t total_available() const = 0;

  /// Pooled containers currently frozen (snapshot).
  [[nodiscard]] virtual std::size_t paused_count() const = 0;

  /// Hit/miss/eviction counters (snapshot, by value).
  [[nodiscard]] virtual PoolStats stats_snapshot() const = 0;

  /// The conservation ledger (snapshot, by value).  On a sharded pool each
  /// shard's contribution is a seqlock-consistent cut, so the per-pool
  /// identities hold on every read, even while writers run.
  [[nodiscard]] virtual PoolFlows flows() const = 0;

  /// Full conservation pass: audit::verify() over the ledger plus the
  /// structural invariants binding the pool's indexes.  A sharded pool
  /// checks every shard, then the identities that close only over the sum.
  [[nodiscard]] virtual Result<bool> check_conservation() const = 0;

  /// All keys that currently have at least one available container.
  [[nodiscard]] virtual std::vector<spec::RuntimeKey> keys() const = 0;

  /// Snapshot of available entries for a key (FIFO order, oldest first).
  [[nodiscard]] virtual std::vector<PoolEntry> entries(
      const spec::RuntimeKey& key) const = 0;

  /// True when the pool holds max_live containers already (snapshot).
  [[nodiscard]] virtual bool at_capacity() const = 0;

  [[nodiscard]] virtual const PoolLimits& limits() const = 0;
};

}  // namespace hotc::pool
