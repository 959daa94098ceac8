// Compatibility lattice over runtime configurations (cross-key sharing).
//
// HotC's exact-match pool (Section IV-B) reuses a container only when the
// incoming request's RuntimeKey matches bit-for-bit, so sibling functions —
// same base image, same sandbox topology, different env/command — never
// share warm runtimes.  Pagurus-style re-specialization relaxes this: a
// donor container can be converted to a sibling's configuration far cheaper
// than a cold start, *provided* the fields that shaped the sandbox at
// creation time agree.  CompatClass partitions the key space by exactly
// those fields:
//
//   class identity (must match; cannot be re-applied to a live container):
//     image name + its Fig. 2(b) base-image category, network mode,
//     UTS/IPC/PID namespace modes, privileged, read-only rootfs, and the
//     volume topology (number of container mounts — remounting a different
//     shape would change the sandbox, not just its contents).
//
//   re-specializable delta (may differ; applied by a donor conversion):
//     env vars, volume host paths, command/entrypoint, memory/cpu limits,
//     and the image *tag* (same-name tags share most layers; the layer
//     delta is costed, not assumed free).
//
// Because the image name participates in the class and the category is a
// pure function of the name, two specs whose base images fall in different
// Fig. 2(b) categories can never share a class — the property tests in
// tests/spec/test_compat.cpp pin this down.
//
// This header is pure spec-level code (links only hotc_core): the *cost*
// of applying a delta is CostModel::respecialize (engine/cost_model.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "spec/key_interner.hpp"
#include "spec/runspec.hpp"

namespace hotc::spec {

/// Identity of one compatibility class: an interned {id, hash} pair over
/// the stable canonical class text, mirroring RuntimeKey so it can key
/// striped indexes without allocating on the lookup path.
class CompatClass {
 public:
  CompatClass() = default;

  static CompatClass from_spec(const RunSpec& spec);

  /// Rebuild a class identity from its interned id.
  static CompatClass from_id(KeyId id);

  [[nodiscard]] const std::string& text() const {
    return KeyInterner::global().text(id_);
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] KeyId id() const { return id_; }
  [[nodiscard]] bool empty() const { return id_ == kNoKeyId; }

  bool operator==(const CompatClass& other) const { return id_ == other.id_; }
  bool operator!=(const CompatClass& other) const {
    return id_ != other.id_;
  }
  bool operator<(const CompatClass& other) const {
    return id_ != other.id_ && text() < other.text();
  }

 private:
  CompatClass(KeyId id, std::uint64_t hash) : id_(id), hash_(hash) {}

  KeyId id_ = kNoKeyId;
  std::uint64_t hash_ = 0;
};

/// Field-by-field difference between two specs of the same class — the
/// work a donor conversion must apply (and charge).
struct CompatDelta {
  std::size_t env_changes = 0;     // vars to set, unset or overwrite
  std::size_t volume_changes = 0;  // host-path remounts (same topology)
  bool tag_differs = false;        // image-layer delta must be costed
  bool limits_differ = false;      // cgroup controllers re-applied
  bool command_differs = false;    // argv/entrypoint swap (free at exec)

  [[nodiscard]] bool empty() const {
    return env_changes == 0 && volume_changes == 0 && !tag_differs &&
           !limits_differ && !command_differs;
  }
};

/// True when the two specs fall in the same compatibility class (an
/// equivalence: reflexive, symmetric, transitive — it is string equality
/// on the canonical class text).
[[nodiscard]] bool compatible(const RunSpec& a, const RunSpec& b);

/// The re-specializable difference donor -> request.  Meaningful only for
/// compatible specs; computed field-by-field regardless.
[[nodiscard]] CompatDelta compat_delta(const RunSpec& donor,
                                       const RunSpec& request);

}  // namespace hotc::spec

template <>
struct std::hash<hotc::spec::CompatClass> {
  std::size_t operator()(const hotc::spec::CompatClass& c) const noexcept {
    return static_cast<std::size_t>(c.hash());
  }
};
