// Canonical runtime key — the key of HotC's key-value store.
//
// "HotC treats containers with identical parameter configurations as the
// same type of runtime environment.  The key is the formatted parameter
// configurations for each container" (Section IV-B).  We canonicalise the
// RunSpec fields that shape the runtime environment (image, network, UTS,
// IPC, PID, env, volumes, limits) into a stable string + 64-bit hash.
//
// The canonical text is built in a per-thread scratch string and
// interned (spec::KeyInterner): a RuntimeKey is a trivially-copyable
// {KeyId, hash} pair.  Equality is an integer compare, hashing is a load,
// copying allocates nothing — the properties the pool hot path needs.
// text() reads the interner's stable storage; ordering (operator<) stays
// lexicographic over the canonical text, so ordered containers keyed by
// RuntimeKey iterate exactly as they did when the key carried its string.
//
// The paper's future-work section notes that "small differences in the
// configuration file ... would lead to lookup failure" and proposes keying
// on a subset of parameters; subset_key() implements that extension (the
// re-applicable fields — env and command — are dropped from the key and can
// be re-applied to a similar container at exec time).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "spec/key_interner.hpp"
#include "spec/runspec.hpp"

namespace hotc::spec {

class RuntimeKey {
 public:
  RuntimeKey() = default;

  /// Full-fidelity key: every runtime-shaping parameter participates.
  static RuntimeKey from_spec(const RunSpec& spec);

  /// Subset key: image + network + namespaces + limits only; env vars,
  /// volumes and command are treated as re-applicable (paper §VII).
  static RuntimeKey subset_from_spec(const RunSpec& spec);

  /// Rebuild a key from its interned id (e.g. when walking per-id pool
  /// tables back into key space).
  static RuntimeKey from_id(KeyId id);

  [[nodiscard]] const std::string& text() const {
    return KeyInterner::global().text(id_);
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] KeyId id() const { return id_; }
  [[nodiscard]] bool empty() const { return id_ == kNoKeyId; }

  bool operator==(const RuntimeKey& other) const { return id_ == other.id_; }
  bool operator!=(const RuntimeKey& other) const { return id_ != other.id_; }
  bool operator<(const RuntimeKey& other) const {
    return id_ != other.id_ && text() < other.text();
  }

 private:
  RuntimeKey(KeyId id, std::uint64_t hash) : id_(id), hash_(hash) {}

  KeyId id_ = kNoKeyId;
  std::uint64_t hash_ = 0;
};

/// Append `v` the way key texts spell a double (the `cpu=` field): printf's
/// %g when its text reads back as `v`, otherwise %.17g.
void append_key_double(std::string& out, double v);

}  // namespace hotc::spec

template <>
struct std::hash<hotc::spec::RuntimeKey> {
  std::size_t operator()(const hotc::spec::RuntimeKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};
