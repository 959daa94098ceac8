// Pool conservation auditing (the dynamic half of the correctness gate;
// the static half is core/ranked_mutex.hpp and the constexpr FSM proofs in
// engine/container.hpp).
//
// Every container the pool has ever seen is accounted for by one ledger
// record, pool::PoolFlows, and verify() below is the only place its
// identities are written:
//
//     pooled == admitted − leased − removed
//     paused <= pooled           donated <= leased
//     respecialized <= admitted  checkpointed <= removed
//     restored <= admitted
//
// plus, over a sharded pool's sum only, respecialized <= donated: a donor
// leaves its own key's shard and the converted runtime re-enters on the
// sibling key's shard, so no single shard can bound its conversions by
// its own donations.  (The paper's "pooled + leased + paused == created −
// removed" counts the same conservation with paused split out; here
// paused is verified as a sub-count of pooled instead, which is strictly
// stronger.)
//
// PoolView::check_conservation() runs verify() plus each pool's structural
// invariants and is cheap enough for tests to call at every quiescent
// point.  -DHOTC_AUDIT=ON builds also run it inside every RuntimePool
// mutator — so on both the simulator's pool and every shard of RealHotC's
// — and abort through enforce() at the operation that broke the ledger.
#pragma once

#include <cstdint>

#include "core/result.hpp"

namespace hotc::pool {
struct PoolFlows;
}  // namespace hotc::pool

namespace hotc::audit {

/// Which ledger verify() is looking at.
enum class Scope : std::uint8_t {
  kPool,      // one RuntimePool: a shard, or the simulator's whole pool
  kShardSum,  // the sum over every shard of a ShardedRuntimePool
};

/// The conservation identities over one ledger record.
[[nodiscard]] Result<bool> verify(const pool::PoolFlows& flows,
                                  Scope scope = Scope::kPool);

/// Abort with a diagnostic unless `verdict` is ok, giving the crash hook
/// (core/crash_hook.hpp) one chance to dump the black box first.  This is
/// what HOTC_AUDIT builds run after every pool mutation; tests and the
/// crash drill use it to prove a seeded violation is fatal.
void enforce(const Result<bool>& verdict, const char* what);

}  // namespace hotc::audit
