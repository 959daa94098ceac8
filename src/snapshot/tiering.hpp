// Tiering policy knobs and the economic gate (DESIGN.md §16).
//
// A retired or evicted runtime is worth checkpointing only when the
// modelled restore is decisively cheaper than the cold start it would
// replace — otherwise the disk budget is better spent on other keys.  The
// gate is restore_estimate ≤ α × cold_estimate with α ∈ (0, 1]; the paper's
// CRIU measurements put restore well under half a cold start for the
// workloads studied, so α = 0.5 demotes exactly the runtimes whose
// snapshots pay for themselves on the first hit.
#pragma once

#include <cstdint>
#include <optional>

#include "core/time.hpp"
#include "core/units.hpp"
#include "snapshot/checkpoint_store.hpp"
#include "spec/runspec.hpp"

namespace hotc::snapshot {

struct TieringOptions {
  /// Master switch; the demote/restore branches of both request loops are
  /// inert when false.
  bool enabled = false;
  /// Economic gate: demote only when restore_estimate ≤ alpha × cold_estimate.
  double alpha = 0.5;
  /// Disk budget and quotas for the checkpoint store.
  CheckpointStore::Options store;
};

/// Tenant attribution for quota accounting: the image family *is* the
/// tenant in this corpus (sibling functions share a base image), so the
/// interned image name hashes to a stable tenant id without adding a
/// tenant field to RunSpec.
inline std::uint64_t tenant_of(const spec::RunSpec& spec) {
  return spec::fnv1a(spec.image.name);
}

/// The economic gate: restore_estimate ≤ α × cold_estimate.
constexpr bool gate_passes(double restore_estimate_s, double cold_estimate_s,
                           double alpha) {
  return cold_estimate_s > 0.0 &&
         restore_estimate_s <= alpha * cold_estimate_s;
}

/// The demotion plan both request loops run on an eviction victim: the
/// economic gate, then the check that an `image_bytes` dump could ever fit
/// the store's disk budget.  On success, the SnapshotMeta to admit once the
/// dump lands (the caller stamps its timestamps then); nullopt leaves the
/// victim to an ordinary eviction.
[[nodiscard]] inline std::optional<SnapshotMeta> plan_demotion(
    const TieringOptions& options, spec::KeyId key, std::uint64_t tenant,
    std::uint64_t container, Bytes image_bytes, Duration restore,
    Duration cold) {
  const double restore_s = to_seconds(restore);
  const double cold_s = to_seconds(cold);
  if (!gate_passes(restore_s, cold_s, options.alpha) ||
      image_bytes > options.store.capacity_bytes) {
    return std::nullopt;
  }
  SnapshotMeta meta;
  meta.key = key;
  meta.tenant = tenant;
  meta.container = container;
  meta.bytes = image_bytes;
  meta.restore_estimate_s = restore_s;
  meta.cold_estimate_s = cold_s;
  return meta;
}

}  // namespace hotc::snapshot
