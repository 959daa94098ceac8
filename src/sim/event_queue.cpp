#include "sim/event_queue.hpp"

#include <algorithm>

namespace hotc::sim {
namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventId EventQueue::push_reserved(TimePoint t, std::uint64_t seq,
                                  EventFn fn) {
  HOTC_ASSERT_MSG(seq < next_seq_, "sequence number was never reserved");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  ++live_;

  // Sift up: move parents down until the new node's place is found.
  const Node node{t, seq, slot, s.generation};
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
  return (EventId{s.generation} << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() ||
      slots_[slot].generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  release(slot);
  prune();
  return true;
}

std::pair<TimePoint, EventFn> EventQueue::pop() {
  HOTC_ASSERT(live_ > 0);
  const Node top = heap_.front();
  remove_top();
  EventFn fn = std::move(slots_[top.slot].fn);
  release(top.slot);
  prune();
  return {top.t, std::move(fn)};
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.generation;
  free_.push_back(slot);
  --live_;
}

void EventQueue::remove_top() {
  const Node last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the former last node down from the root.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::prune() {
  while (!heap_.empty() && stale(heap_.front())) remove_top();
}

}  // namespace hotc::sim
