// ChunkedAtomic<T>: a grow-only array of atomics with lock-free reads
// under concurrent growth.
//
// The sharded pool keeps one "available containers" counter per interned
// KeyId so lookups can answer num_available() (and fast-miss on empty
// keys) without the shard mutex; RealHotC keeps one published request
// plan pointer per KeyId the same way.  KeyIds are dense small integers
// but the universe grows at runtime, so storage must extend without
// relocating existing slots — a flat vector would invalidate concurrent
// readers on resize.  Chunks fix that: a fixed spine of atomic chunk
// pointers, each chunk a stable array of atomics.  Readers index spine ->
// chunk -> slot with acquire loads; writers (serialised by the owner's
// mutex) allocate missing chunks and publish them with a release store.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace hotc {

/// `T` is a trivially-copyable word (a counter or a pointer); absent
/// slots read as value-initialised `T{}` (zero / nullptr).
template <typename T>
class ChunkedAtomic {
 public:
  static constexpr std::size_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = 512;  // 128K slots
  static constexpr std::size_t kMaxIndex = kChunkSize * kMaxChunks;

  ChunkedAtomic() {
    for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
  }

  ChunkedAtomic(const ChunkedAtomic&) = delete;
  ChunkedAtomic& operator=(const ChunkedAtomic&) = delete;

  ~ChunkedAtomic() {
    for (auto& c : chunks_) {
      delete[] c.load(std::memory_order_relaxed);
    }
  }

  /// Lock-free read; absent chunks read as T{}.
  [[nodiscard]] T load(std::size_t index) const {
    const std::size_t chunk = index >> kChunkShift;
    if (chunk >= kMaxChunks) return T{};
    const auto* slots = chunks_[chunk].load(std::memory_order_acquire);
    if (slots == nullptr) return T{};
    return slots[index & (kChunkSize - 1)].load(std::memory_order_acquire);
  }

  /// Writer-side slot access; allocates the chunk on first touch.  Must
  /// be serialised by the caller (the owner's mutex) — concurrent
  /// ensure() calls would race on chunk allocation.
  std::atomic<T>& ensure(std::size_t index) {
    const std::size_t chunk = index >> kChunkShift;
    if (chunk >= kMaxChunks) {
      // 128K live key ids would mean a leaked interner long before this.
      std::abort();
    }
    auto* slots = chunks_[chunk].load(std::memory_order_acquire);
    if (slots == nullptr) {
      // Value-initialised: slots start at T{}.  Amortised away: one chunk
      // per 256 new key ids, never again in steady state.
      // hot-path-alloc: allow(first-touch chunk growth)
      slots = new std::atomic<T>[kChunkSize]();
      chunks_[chunk].store(slots, std::memory_order_release);
    }
    return slots[index & (kChunkSize - 1)];
  }

  void store(std::size_t index, T value) {
    ensure(index).store(value, std::memory_order_release);
  }

 private:
  std::atomic<std::atomic<T>*> chunks_[kMaxChunks];
};

using ChunkedAtomicU32 = ChunkedAtomic<std::uint32_t>;

}  // namespace hotc
