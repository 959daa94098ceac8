// Cross-key donor registry: the secondary index behind container sharing.
//
// The runtime pool is exact-match — a request's runtime key either has an
// idle container or it cold-starts.  The registry adds the cross-key view:
// it maps each compatibility class (spec/compat.hpp) to the runtime keys
// known to belong to it, so a miss on one key can locate an idle *sibling*
// container to donate and re-specialize instead of paying the full cold
// start.
//
// The registry never touches the pool.  It records only (key, function
// handle) pairs the controller has seen — a pointer to the handle, whose
// class it files the key under, never a RunSpec copy.  Whether a
// candidate key actually has an idle container is checked at lookup time
// through the read-only PoolView seam,
// and the donor itself is leased by the controller through the pool's own
// acquire_for_donation() path.  That keeps every pool mutation behind the
// lease/return seam (enforced by tools/hotc_lint.py's share-pool-seam
// rule) and makes registry staleness harmless: a stale candidate just
// fails the liveness probe.
//
// Concurrency: lock-striped by compatibility-class hash.  Stripe locks
// rank kShareRegistry (45) — strictly below the pool shards (50) because a
// stripe lock is held across PoolView liveness reads, which take a shard
// lock (see core/ranked_mutex.hpp's band table).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"
#include "engine/function_table.hpp"
#include "pool/pool_view.hpp"
#include "spec/compat.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::share {

/// A donor key the registry selected for a request: a sibling runtime key
/// in the same compatibility class with at least one idle container at
/// lookup time.
struct DonorCandidate {
  spec::RuntimeKey key;
  const engine::FunctionHandle* fn = nullptr;  // the key's recorded function
  /// The adaptive controller forecast this key as over-provisioned and
  /// marked its surplus as preferred donor stock (Algorithm 3 cooperation).
  bool nominated = false;
};

class DonorRegistry {
 public:
  /// `stripe_count` 0 picks a small default sized for tens of classes.
  explicit DonorRegistry(std::size_t stripe_count = 0);

  DonorRegistry(const DonorRegistry&) = delete;
  DonorRegistry& operator=(const DonorRegistry&) = delete;

  /// Make a key discoverable as a potential donor (idempotent upsert; the
  /// stored handle is refreshed).  Called whenever a request path first
  /// sees a key and whenever a converted container re-enters under a new
  /// key.  The handle must outlive the registry.  Returns the
  /// compatibility class the key was filed under (the handle's).
  spec::CompatClass record(const spec::RuntimeKey& key,
                           const engine::FunctionHandle& fn);

  /// Set a recorded key's per-tick flags; `cls` is the class record()
  /// returned for it.  No-op if the key was never recorded there.
  ///  - nominated: Algorithm 3 forecasts the key as over-provisioned, so
  ///    its idle surplus is donated first.
  ///  - muted (obs/drift.hpp feedback): find_donor skips the key entirely;
  ///    its surplus derives from a forecast the drift detector distrusted.
  void set_flags(const spec::CompatClass& cls, const spec::RuntimeKey& key,
                 bool nominated, bool muted);

  /// Find an idle donor for `request`: a recorded sibling key in the
  /// request's compatibility class, not `exclude` (the request's own key),
  /// with `view.num_available(key) > 0` right now.  Nominated keys win over
  /// merely-live ones.  The liveness probe is advisory — the caller must
  /// still handle an empty lease (the container may be taken concurrently).
  [[nodiscard]] std::optional<DonorCandidate> find_donor(
      const engine::FunctionHandle& request, const spec::RuntimeKey& exclude,
      const pool::PoolView& view) const;

  // --- introspection ----------------------------------------------------
  [[nodiscard]] std::uint64_t found() const {
    return found_.load(std::memory_order_relaxed);
  }
  /// Keys currently indexed, across all classes and stripes.
  [[nodiscard]] std::size_t known_keys() const;
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

 private:
  struct Member {
    const engine::FunctionHandle* fn = nullptr;
    bool nominated = false;
    bool muted = false;  // drift cooldown: excluded from donation
  };
  using ClassMembers = std::unordered_map<spec::RuntimeKey, Member>;

  struct alignas(64) Stripe {
    explicit Stripe(std::uint32_t index)
        : mu(LockRank::kShareRegistry, index, "share.registry") {}
    mutable RankedMutex mu;
    std::unordered_map<spec::CompatClass, ClassMembers> classes
        HOTC_GUARDED_BY(mu);
  };

  [[nodiscard]] Stripe& stripe_for(const spec::CompatClass& cls) const {
    return *stripes_[cls.hash() % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  mutable std::atomic<std::uint64_t> found_{0};
};

}  // namespace hotc::share
