// Image registry and local layer store.
//
// The registry is the remote side (pull source); the ImageStore is the
// node-local content-addressed cache.  Pull cost is charged only for
// layers the store has not seen — identical base images across functions
// therefore pull once, which is what makes the paper's "images were stored
// locally" setting reproducible: pre-seed the store and pulls are free.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/result.hpp"
#include "core/units.hpp"
#include "engine/image.hpp"

namespace hotc::engine {

class Registry {
 public:
  /// Publish an image; overwrites any previous image with the same ref.
  void push(const Image& image);

  /// True if the exact ref is known.
  [[nodiscard]] bool has(const spec::ImageRef& ref) const;

  /// Resolve a ref.  Unknown refs are synthesised on demand via
  /// image_for_name when `synthesize_unknown` is set (the default), which
  /// mirrors Docker Hub always having *something* for common names.
  [[nodiscard]] Result<Image> resolve(const spec::ImageRef& ref) const;

  void set_synthesize_unknown(bool v) { synthesize_unknown_ = v; }

  [[nodiscard]] std::size_t image_count() const { return images_.size(); }

 private:
  std::map<std::string, Image> images_;  // full ref -> image
  bool synthesize_unknown_ = true;
};

class ImageStore {
 public:
  /// Compressed bytes of layers not yet present locally.
  [[nodiscard]] Bytes missing_bytes(const Image& image) const;

  /// Record that the image's layers are now local; returns the bytes that
  /// were actually new.  If a disk limit is set and exceeded, least-
  /// recently-used layers are garbage-collected (never the ones just
  /// committed) — modelling the kubelet/dockerd image GC that makes "the
  /// image is local" a state that can silently expire.
  Bytes commit(const Image& image);

  /// Mark an image's layers as recently used without committing (a launch
  /// from cache refreshes recency).
  void touch(const Image& image);

  [[nodiscard]] bool fully_cached(const Image& image) const {
    return missing_bytes(image) == 0;
  }

  /// 0 = unlimited (default).  Limits apply to extracted bytes.
  void set_disk_limit(Bytes limit) { disk_limit_ = limit; }
  [[nodiscard]] Bytes disk_limit() const { return disk_limit_; }
  [[nodiscard]] std::uint64_t gc_evictions() const { return gc_evictions_; }

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] Bytes disk_used() const { return disk_used_; }

  /// Drop everything (e.g. to model a fresh node).
  void clear();

 private:
  struct LayerRecord {
    Bytes extracted = 0;
    std::uint64_t last_used = 0;
  };

  /// Evict least-recently-used layers until under the limit, never one
  /// of `pinned`'s (the image just committed).
  void run_gc(const Image& pinned);

  std::map<std::string, LayerRecord> layers_;  // digest -> record
  Bytes disk_used_ = 0;
  Bytes disk_limit_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t gc_evictions_ = 0;
};

}  // namespace hotc::engine
