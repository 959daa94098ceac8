// Discrete-event simulator.
//
// The whole evaluation harness runs on virtual time: container startup
// phases, request round-trips and keep-alive expirations are events on this
// loop.  This replaces the paper's wall-clock testbed with a deterministic
// substrate (see DESIGN.md, substitution table).
#pragma once

#include <atomic>
#include <functional>

#include "core/time.hpp"
#include "sim/event_queue.hpp"

namespace hotc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Virtual time: moves only when the event loop advances it.
  [[nodiscard]] TimePoint now() const {
    return TimePoint(now_ns_.load(std::memory_order_relaxed));
  }

  /// Schedule fn at absolute time t (must be >= now()).
  EventId at(TimePoint t, EventFn fn);

  /// Schedule fn after a delay from now.
  EventId after(Duration delay, EventFn fn);

  /// Schedule fn every `period`, starting at now() + period, until the
  /// predicate returns false (checked before each firing).
  void every(Duration period, const std::function<bool()>& keep_going,
             const std::function<void()>& fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains.  Returns the number of events processed.
  std::size_t run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events at exactly `deadline` still fire.
  std::size_t run_until(TimePoint deadline);

  /// Process a single event; returns false when the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  void advance_to(TimePoint t) {
    now_ns_.store(t.count(), std::memory_order_relaxed);
  }

  // Relaxed atomic: now() is safe to read from any thread.
  std::atomic<std::int64_t> now_ns_{0};
  EventQueue queue_;
};

}  // namespace hotc::sim
