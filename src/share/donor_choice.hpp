// The donor choice on the miss path: one decision, both request loops.
//
// On an exact-match miss, HotC's Algorithm 1 starts a new runtime.  The
// Pagurus-style extension first asks whether an idle *sibling* — same
// compatibility class (spec/compat.hpp), different key — can be converted
// for less than that cold start.  choose_donor() makes the whole decision
// over the read-only PoolView: find a sibling with idle stock
// (DonorRegistry::find_donor), price its conversion with the engine's one
// conversion cost (CostModel::respecialize), and gate the price against
// the cold start.  A donor is viable when
//
//     respecialize(donor -> request) <= max_cost_ratio * cold(request)
//
// with max_cost_ratio < 1 so the donor path keeps a safety margin: a
// conversion that costs almost as much as a cold start isn't worth the
// donor it consumes (the donor key loses a warm runtime it may want back).
//
// The choice is pure.  Leasing the donor (the pool's acquire_for_donation)
// and converting it stay with the caller — the simulated controller and
// RealHotC — which owns the pool; tools/hotc_lint.py's share-pool-seam rule
// keeps it that way.
#pragma once

#include <optional>

#include "core/time.hpp"
#include "core/units.hpp"
#include "engine/cost_model.hpp"
#include "pool/pool_view.hpp"
#include "share/donor_registry.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::share {

/// A sibling with idle stock, its conversion price, and the gate's verdict.
struct DonorChoice {
  DonorCandidate donor;
  Duration respec = kZeroDuration;
  bool viable = false;
};

/// Find an idle compatible sibling of `request` (key `key`) in `view`,
/// price converting it, and gate the price against `cold`.  The price
/// reads both sides' handles: the request's image (empty when unresolved)
/// and `missing_layer_bytes`, the part of it not yet local, are charged
/// only when a donor differs in image tag.  nullopt when no sibling has
/// idle stock right now; otherwise the best candidate (nominated keys
/// first), priced, with `viable` set when it beats the ratio gate.
[[nodiscard]] std::optional<DonorChoice> choose_donor(
    const DonorRegistry& donors, const pool::PoolView& view,
    const engine::CostModel& cost, const engine::FunctionHandle& request,
    const spec::RuntimeKey& key, Duration cold, Bytes missing_layer_bytes,
    double max_cost_ratio);

}  // namespace hotc::share
