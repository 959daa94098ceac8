// Slab / IdSlab: records with stable addresses, recycled through a free
// list — the one record idiom of the simulator's request path.
//
// A Slab hands out slot indices.  A slot's record keeps its address for
// the slab's lifetime (a deque never moves what it holds), so a record may
// be referenced while later claims grow the slab, and an event or
// continuation that captures {this, slot} — 16 bytes, trivially copyable,
// stored inline by std::function — finds its state without a lookup.
// Freed slots are reused before the slab grows, so once a run reaches its
// peak of live records, claiming and freeing allocate nothing.
//
// A recycled record keeps the value it was freed with: the claimer
// overwrites what it uses (assigning into a recycled std::string or
// std::function reuses its storage).
//
// IdSlab files records under caller-chosen 64-bit ids through an
// IdSlotMap: O(1) find by id, memory bounded by the peak of live records,
// and a freed id never finds the slot's next tenant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/assert.hpp"
#include "core/flat_map.hpp"

namespace hotc {

template <typename T>
class Slab {
 public:
  /// A free slot: the most recently freed one, else a new
  /// default-constructed record.
  std::uint32_t claim() {
    std::uint32_t slot = 0;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      // Growth: once per slot up to the run's peak of live records.
      slot = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    }
    cells_[slot].live = true;
    ++live_;
    return slot;
  }

  void free(std::uint32_t slot) {
    HOTC_ASSERT_MSG(slot < cells_.size() && cells_[slot].live,
                    "freeing a slab slot that is not live");
    cells_[slot].live = false;
    --live_;
    free_.push_back(slot);
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) {
    return cells_[slot].value;
  }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return cells_[slot].value;
  }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Visit every live record, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.live) fn(c.value);
    }
  }

 private:
  struct Cell {
    // Value-initialised: `T value{}` would copy-list-initialise an
    // aggregate's members, which an explicit default constructor rejects.
    T value = T();
    bool live = false;
  };

  std::deque<Cell> cells_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

template <typename T>
class IdSlab {
 public:
  static constexpr std::uint32_t kNone = IdSlotMap::kNotFound;

  /// File a new record under `id`, which must not be live.
  std::uint32_t insert(std::uint64_t id) {
    const std::uint32_t slot = slab_.claim();
    const std::uint32_t previous = index_.insert(id, slot);
    HOTC_ASSERT_MSG(previous == kNone,
                    "id already live in the slab");
    return slot;
  }

  /// Unfile `id` and free its slot.  Returns false if `id` is not live.
  bool erase(std::uint64_t id) {
    const std::uint32_t slot = index_.find(id);
    if (slot == kNone) return false;
    index_.erase(id);
    slab_.free(slot);
    return true;
  }

  /// The slot filed under `id`, or kNone.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t id) const {
    return index_.find(id);
  }
  [[nodiscard]] T* find(std::uint64_t id) {
    const std::uint32_t slot = index_.find(id);
    return slot == kNone ? nullptr : &slab_[slot];
  }
  [[nodiscard]] const T* find(std::uint64_t id) const {
    const std::uint32_t slot = index_.find(id);
    return slot == kNone ? nullptr : &slab_[slot];
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return slab_[slot]; }

  [[nodiscard]] std::size_t size() const { return slab_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    slab_.for_each(fn);
  }

 private:
  Slab<T> slab_;
  IdSlotMap index_;
};

}  // namespace hotc
