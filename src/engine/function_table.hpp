// FunctionTable: every per-function fact HotC derives from a RunSpec,
// derived once per runtime key and carried as a stable handle.
//
// Algorithm 1 parses a function's configuration into a canonical runtime
// key (Section IV-B).  Everything else the request paths need from the
// configuration — the subset key, the donor compatibility class, the
// resolved image and the cost-model estimates — is a pure function of
// that key, so it is derived once per key and never again.  Both request paths carry the handle instead of the RunSpec: the
// simulator's engine owns one table (ContainerEngine::prepare) and
// RealHotC owns its own (RealHotC::prepare).
//
// Rules:
//  - One handle per full RuntimeKey.  Specs that differ only outside the
//    key (the command and the entrypoint override) share the handle of the
//    first such spec prepared; no cost reads those fields.
//  - Append-only: a handle's address is stable for the table's lifetime,
//    so events and indexes may hold `const FunctionHandle*`.
//  - find(KeyId) is lock-free.  A first sighting builds the handle outside
//    any lock and publishes it under one leaf lock (band 55 — it is taken
//    with nothing else held and calls nothing while held).
//  - The compatibility class and the subset key are derived on their
//    first use, then read back: a table interns no key text its callers
//    never ask for.  KeyIds number interned texts in order, and the pool's
//    bucket walk and the checkpoint store's stripes follow KeyIds, so an
//    extra intern would move simulated decisions.
//  - The image is resolved through the owner's Registry at the key's first
//    prepare.  A later Registry::push (or set_synthesize_unknown) is not
//    seen by keys already prepared: configure the registry first.  A
//    resolve error is kept in the handle and surfaces where a per-call
//    resolve would: launch fails with it, donor pricing uses an empty
//    image and every estimate is zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/chunked_atomic.hpp"
#include "core/ranked_mutex.hpp"
#include "core/result.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "engine/cost_model.hpp"
#include "engine/image.hpp"
#include "engine/registry.hpp"
#include "spec/compat.hpp"
#include "spec/runspec.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::engine {

/// One function as both request paths see it.  Immutable once published
/// (the two memoised keys aside).
struct FunctionHandle {
  spec::RuntimeKey key;               // full canonical key (Algorithm 1)
  spec::RunSpec spec;                 // the key's first spec, kept stable
  Image image;                        // resolved once; empty if unresolved
  std::optional<Error> image_error;   // the registry's error, if any
  /// Modelled cold start with every layer local and no network created.
  Duration cold = kZeroDuration;
  /// Modelled checkpoint image (idle resident set plus dump metadata) and
  /// the restore that reads it back.
  Bytes image_bytes = 0;
  Duration restore = kZeroDuration;
  std::uint64_t tenant = 0;  // quota attribution (snapshot::tenant_of)

  [[nodiscard]] bool resolved() const { return !image_error.has_value(); }

  /// The donor compatibility class (spec/compat.hpp).  Thread-safe.
  [[nodiscard]] spec::CompatClass compat() const;
  /// The paper §VII subset key.  Thread-safe.
  [[nodiscard]] spec::RuntimeKey subset_key() const;

 private:
  /// kNoKeyId until first use; racing first uses intern the same text.
  mutable std::atomic<spec::KeyId> compat_{spec::kNoKeyId};
  mutable std::atomic<spec::KeyId> subset_{spec::kNoKeyId};
};

class FunctionTable {
 public:
  /// Both must outlive the table.
  FunctionTable(const Registry& registry, const CostModel& cost);

  FunctionTable(const FunctionTable&) = delete;
  FunctionTable& operator=(const FunctionTable&) = delete;

  /// The handle of the spec's runtime key, built on its first sighting.
  /// `published`, when given, is set to whether this call built it.
  const FunctionHandle& prepare(const spec::RunSpec& spec,
                                bool* published = nullptr);

  /// Lock-free: the handle of a prepared key, else nullptr.
  [[nodiscard]] const FunctionHandle* find(spec::KeyId key) const {
    return handles_.load(key);
  }

  /// Handles published so far (one per distinct key).
  [[nodiscard]] std::size_t size() const;

 private:
  const Registry& registry_;
  const CostModel& cost_;
  mutable RankedMutex mu_;
  ChunkedAtomic<const FunctionHandle*> handles_ HOTC_WRITE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<FunctionHandle>> storage_ HOTC_GUARDED_BY(mu_);
};

}  // namespace hotc::engine
