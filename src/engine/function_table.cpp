#include "engine/function_table.hpp"

#include <utility>

#include "snapshot/tiering.hpp"

namespace hotc::engine {

spec::CompatClass FunctionHandle::compat() const {
  const spec::KeyId id = compat_.load(std::memory_order_acquire);
  if (id != spec::kNoKeyId) return spec::CompatClass::from_id(id);
  const spec::CompatClass cls = spec::CompatClass::from_spec(spec);
  compat_.store(cls.id(), std::memory_order_release);
  return cls;
}

spec::RuntimeKey FunctionHandle::subset_key() const {
  const spec::KeyId id = subset_.load(std::memory_order_acquire);
  if (id != spec::kNoKeyId) return spec::RuntimeKey::from_id(id);
  const spec::RuntimeKey subset = spec::RuntimeKey::subset_from_spec(spec);
  subset_.store(subset.id(), std::memory_order_release);
  return subset;
}

FunctionTable::FunctionTable(const Registry& registry, const CostModel& cost)
    : registry_(registry),
      cost_(cost),
      mu_(LockRank::kSnapshotStore, 0x10000, "engine.functions") {}

const FunctionHandle& FunctionTable::prepare(const spec::RunSpec& spec,
                                             bool* published) {
  if (published != nullptr) *published = false;
  const spec::RuntimeKey key = spec::RuntimeKey::from_spec(spec);
  if (const FunctionHandle* fn = handles_.load(key.id())) return *fn;

  // First sighting of this key.  The canonical key covers every field the
  // cost model and the class read, so what is derived here holds for every
  // later spec with the same key.
  // hot-path-alloc: allow — once per distinct key
  auto fresh = std::make_unique<FunctionHandle>();
  fresh->key = key;
  fresh->spec = spec;
  fresh->tenant = snapshot::tenant_of(spec);
  Result<Image> image = registry_.resolve(spec.image);
  if (image.ok()) {
    fresh->image = std::move(image).take();
    fresh->cold =
        cost_.startup(spec, fresh->image, /*bytes_to_pull=*/0).total();
    // The engine's checkpoint model: the idle resident set plus ~2 MiB of
    // dump metadata.
    fresh->image_bytes = fresh->image.base_memory + mib(2);
    fresh->restore = cost_.restore_time(fresh->image_bytes, spec);
  } else {
    fresh->image_error = image.error();
  }

  const RankedGuard lock(mu_);
  if (const FunctionHandle* fn = handles_.load(key.id())) {
    return *fn;  // a racing caller published first
  }
  const FunctionHandle* fn = fresh.get();
  storage_.push_back(std::move(fresh));
  handles_.store(key.id(), fn);
  if (published != nullptr) *published = true;
  return *fn;
}

std::size_t FunctionTable::size() const {
  const RankedGuard lock(mu_);
  return storage_.size();
}

}  // namespace hotc::engine
