#include "engine/registry.hpp"

#include <algorithm>

namespace hotc::engine {

void Registry::push(const Image& image) {
  images_[image.ref.full()] = image;
}

bool Registry::has(const spec::ImageRef& ref) const {
  return images_.find(ref.full()) != images_.end();
}

Result<Image> Registry::resolve(const spec::ImageRef& ref) const {
  const auto it = images_.find(ref.full());
  if (it != images_.end()) return it->second;
  if (synthesize_unknown_) return image_for_name(ref);
  return make_error<Image>("registry.unknown_image",
                           "image not in registry: " + ref.full());
}

Bytes ImageStore::missing_bytes(const Image& image) const {
  Bytes missing = 0;
  for (const auto& layer : image.layers) {
    if (layers_.find(layer.digest) == layers_.end()) missing += layer.size;
  }
  return missing;
}

Bytes ImageStore::commit(const Image& image) {
  ++clock_;
  Bytes added = 0;
  for (const auto& layer : image.layers) {
    // try_emplace builds a node only for a layer not yet local, so
    // re-committing a local image allocates nothing.
    auto [it, inserted] = layers_.try_emplace(
        layer.digest, LayerRecord{layer.extracted_size, 0});
    it->second.last_used = clock_;
    if (inserted) {
      added += layer.size;
      disk_used_ += layer.extracted_size;
    }
  }
  if (disk_limit_ > 0 && disk_used_ > disk_limit_) run_gc(image);
  return added;
}

void ImageStore::touch(const Image& image) {
  ++clock_;
  for (const auto& layer : image.layers) {
    const auto it = layers_.find(layer.digest);
    if (it != layers_.end()) it->second.last_used = clock_;
  }
}

void ImageStore::run_gc(const Image& pinned) {
  const auto is_pinned = [&pinned](const std::string& digest) {
    return std::any_of(
        pinned.layers.begin(), pinned.layers.end(),
        [&digest](const Layer& layer) { return layer.digest == digest; });
  };
  while (disk_used_ > disk_limit_) {
    auto victim = layers_.end();
    for (auto it = layers_.begin(); it != layers_.end(); ++it) {
      if (is_pinned(it->first)) continue;
      if (victim == layers_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == layers_.end()) return;  // everything pinned
    disk_used_ -= victim->second.extracted;
    layers_.erase(victim);
    ++gc_evictions_;
  }
}

void ImageStore::clear() {
  layers_.clear();
  disk_used_ = 0;
}

}  // namespace hotc::engine
