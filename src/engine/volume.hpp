// Volume manager (used-container cleanup, Section IV-B).
//
// "HotC assigns volume ... to each container when they are created.  Each
// live container has its unique directory ...  the cleanup of the used
// container includes two steps: first, it deletes all files and directories
// in the old volumes.  Second, HotC mounts new volumes to the containers
// for future use.  To avoid resource waste and zombie files, the
// corresponding volumes are deleted once the containers stop execution."
#pragma once

#include <cstdint>
#include <string>

#include "core/result.hpp"
#include "core/slab.hpp"
#include "core/units.hpp"

namespace hotc::engine {

using VolumeId = std::uint64_t;

struct Volume {
  VolumeId id = 0;
  std::string path;       // unique host directory
  Bytes dirty_bytes = 0;  // data written by the application
  std::uint64_t generation = 0;  // bumped on every remount
};

class VolumeManager {
 public:
  /// Create a fresh volume with a unique host path.
  Volume create();

  /// Record application writes into a volume.
  [[nodiscard]] Result<bool> write(VolumeId id, Bytes bytes);

  [[nodiscard]] Result<Volume> get(VolumeId id) const;

  /// Bytes written into the volume since its last remount (what
  /// Algorithm 2's wipe must delete), without copying the volume.
  [[nodiscard]] Result<Bytes> dirty_bytes(VolumeId id) const;

  /// Step 1+2 of Algorithm 2: wipe contents and remount fresh.  Returns
  /// the number of bytes that had to be deleted.
  [[nodiscard]] Result<Bytes> wipe_and_remount(VolumeId id);

  /// Delete the volume entirely (container stopped for good).
  [[nodiscard]] Result<bool> destroy(VolumeId id);

  [[nodiscard]] std::size_t volume_count() const { return volumes_.size(); }
  [[nodiscard]] Bytes total_dirty_bytes() const;

 private:
  IdSlab<Volume> volumes_;  // by id (ids are never reused; slots are)
  VolumeId next_id_ = 1;
};

}  // namespace hotc::engine
