// Discrete-event simulator.
//
// The whole evaluation harness runs on virtual time: container startup
// phases, request round-trips and keep-alive expirations are events on this
// loop.  This replaces the paper's wall-clock testbed with a deterministic
// substrate (see DESIGN.md, substitution table).
#pragma once

#include <atomic>
#include <deque>
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

  /// A source of n events: item k fires fire(k) at at(k), which must be
  /// non-decreasing in k and no earlier than now().  Only one item is
  /// pending at a time — item k+1 is scheduled when item k fires — but
  /// the n tie-break sequence numbers are reserved by this call, so every
  /// item orders against other events exactly as if all n had been
  /// scheduled here.  A day's arrivals thus cost one queue entry, not one
  /// per arrival.
  void stream(std::size_t n, std::function<TimePoint(std::size_t)> at,
              std::function<void(std::size_t)> fire);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains.  Returns the number of events processed.
  std::size_t run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events at exactly `deadline` still fire.
  std::size_t run_until(TimePoint deadline);

  /// Process a single event; returns false when the queue is empty.
  bool step();

  /// Scheduled events; a stream counts only its one pending item.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  struct Stream {
    std::function<TimePoint(std::size_t)> at;
    std::function<void(std::size_t)> fire;
    std::size_t n = 0;
    std::size_t next = 0;  // the pending item
    std::uint64_t first_seq = 0;
  };

  void schedule_next(Stream& s);
  void fire_next(Stream& s);

  void advance_to(TimePoint t) {
    now_ns_.store(t.count(), std::memory_order_relaxed);
  }

  // Relaxed atomic: now() is safe to read from any thread.
  std::atomic<std::int64_t> now_ns_{0};
  EventQueue queue_;
  std::deque<Stream> streams_;  // a deque: pending items point into it
};

}  // namespace hotc::sim
