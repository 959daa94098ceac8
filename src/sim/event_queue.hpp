// Priority queue of timestamped events with FIFO tie-breaking.
//
// Ties are broken by a schedule sequence number so that two events
// scheduled for the same instant fire in schedule order — this makes every
// simulation fully deterministic, which the experiment harness relies on.
//
// Layout: an event's callable lives in a slab slot recycled through a free
// list, and the heap is a 4-ary implicit min-heap of 24-byte POD nodes
// {t, seq, slot, generation} ordered by (t, seq), so a sift moves nodes,
// never callables.  An EventId names a slot and the generation it was
// issued under.  Firing or cancelling an event frees its slot and bumps
// the slot's generation: the id goes stale (cancelling it returns false,
// even after the slot is reused), and a cancelled event's node, still in
// the heap, no longer matches its slot and is dropped when it reaches the
// top.  Once the slab and the heap have grown to a run's peak, an event
// costs no allocation beyond its callable's own.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace hotc::sim {

using EventFn = std::function<void()>;

/// Opaque handle for cancelling a scheduled event: the slot's generation
/// in the high 32 bits, the slot in the low 32.  Never 0.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedule fn at t under the next sequence number.
  EventId push(TimePoint t, EventFn fn) {
    return push_reserved(t, next_seq_++, std::move(fn));
  }

  /// Reserve n consecutive sequence numbers for push_reserved(); returns
  /// the first.  An event pushed later under a reserved number ties
  /// against every other event exactly as if it had been pushed now.
  std::uint64_t reserve(std::size_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedule fn at t under a sequence number from reserve(); each
  /// reserved number may be used once.
  EventId push_reserved(TimePoint t, std::uint64_t seq, EventFn fn);

  /// Cancel a scheduled event.  Returns false if it already fired or was
  /// already cancelled (both are benign — timer races on container reuse).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Earliest pending event time.  Caller must check !empty().
  [[nodiscard]] TimePoint next_time() const {
    HOTC_ASSERT(live_ > 0);
    return heap_.front().t;  // the top is always live (see prune)
  }

  /// Pop the earliest event.  Caller must check !empty().
  std::pair<TimePoint, EventFn> pop();

 private:
  struct Node {
    TimePoint t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static_assert(sizeof(Node) == 24);

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
  };

  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }
  [[nodiscard]] bool stale(const Node& n) const {
    return slots_[n.slot].generation != n.generation;
  }

  /// Return a slot to the free list; its generation bump stales its id.
  void release(std::uint32_t slot);
  void remove_top();
  /// Drop cancelled nodes from the top, so the top is live or the heap
  /// is empty.
  void prune();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Node> heap_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hotc::sim
