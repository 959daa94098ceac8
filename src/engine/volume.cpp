#include "engine/volume.hpp"

namespace hotc::engine {

Volume VolumeManager::create() {
  Volume v;
  v.id = next_id_++;
  v.path = "/var/lib/hotc/volumes/v" + std::to_string(v.id);
  volumes_[v.id] = v;
  return v;
}

Result<bool> VolumeManager::write(VolumeId id, Bytes bytes) {
  const auto it = volumes_.find(id);
  if (it == volumes_.end()) {
    return make_error<bool>("volume.unknown", "no volume " +
                                                  std::to_string(id));
  }
  if (bytes < 0) {
    return make_error<bool>("volume.bad_write", "negative write size");
  }
  it->second.dirty_bytes += bytes;
  return true;
}

Result<Volume> VolumeManager::get(VolumeId id) const {
  const auto it = volumes_.find(id);
  if (it == volumes_.end()) {
    return make_error<Volume>("volume.unknown",
                              "no volume " + std::to_string(id));
  }
  return it->second;
}

Result<Bytes> VolumeManager::dirty_bytes(VolumeId id) const {
  const auto it = volumes_.find(id);
  if (it == volumes_.end()) {
    return make_error<Bytes>("volume.unknown",
                             "no volume " + std::to_string(id));
  }
  return it->second.dirty_bytes;
}

Result<Bytes> VolumeManager::wipe_and_remount(VolumeId id) {
  const auto it = volumes_.find(id);
  if (it == volumes_.end()) {
    return make_error<Bytes>("volume.unknown",
                             "no volume " + std::to_string(id));
  }
  const Bytes wiped = it->second.dirty_bytes;
  it->second.dirty_bytes = 0;
  ++it->second.generation;
  return wiped;
}

Result<bool> VolumeManager::destroy(VolumeId id) {
  if (volumes_.erase(id) == 0) {
    return make_error<bool>("volume.unknown",
                            "no volume " + std::to_string(id));
  }
  return true;
}

Bytes VolumeManager::total_dirty_bytes() const {
  Bytes total = 0;
  for (const auto& [id, v] : volumes_) {
    (void)id;
    total += v.dirty_bytes;
  }
  return total;
}

}  // namespace hotc::engine
