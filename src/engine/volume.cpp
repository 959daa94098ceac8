#include "engine/volume.hpp"

namespace hotc::engine {

namespace {

template <typename T>
[[nodiscard]] Result<T> unknown_volume(VolumeId id) {
  return make_error<T>("volume.unknown", "no volume " + std::to_string(id));
}

}  // namespace

Volume VolumeManager::create() {
  Volume v;
  v.id = next_id_++;
  v.path = "/var/lib/hotc/volumes/v" + std::to_string(v.id);
  volumes_[volumes_.insert(v.id)] = v;
  return v;
}

Result<bool> VolumeManager::write(VolumeId id, Bytes bytes) {
  Volume* v = volumes_.find(id);
  if (v == nullptr) return unknown_volume<bool>(id);
  if (bytes < 0) {
    return make_error<bool>("volume.bad_write", "negative write size");
  }
  v->dirty_bytes += bytes;
  return true;
}

Result<Volume> VolumeManager::get(VolumeId id) const {
  const Volume* v = volumes_.find(id);
  if (v == nullptr) return unknown_volume<Volume>(id);
  return *v;
}

Result<Bytes> VolumeManager::dirty_bytes(VolumeId id) const {
  const Volume* v = volumes_.find(id);
  if (v == nullptr) return unknown_volume<Bytes>(id);
  return v->dirty_bytes;
}

Result<Bytes> VolumeManager::wipe_and_remount(VolumeId id) {
  Volume* v = volumes_.find(id);
  if (v == nullptr) return unknown_volume<Bytes>(id);
  const Bytes wiped = v->dirty_bytes;
  v->dirty_bytes = 0;
  ++v->generation;
  return wiped;
}

Result<bool> VolumeManager::destroy(VolumeId id) {
  if (!volumes_.erase(id)) return unknown_volume<bool>(id);
  return true;
}

Bytes VolumeManager::total_dirty_bytes() const {
  Bytes total = 0;
  volumes_.for_each([&total](const Volume& v) { total += v.dirty_bytes; });
  return total;
}

}  // namespace hotc::engine
