#include "sim/simulator.hpp"

#include <memory>

#include "core/assert.hpp"

namespace hotc::sim {

EventId Simulator::at(TimePoint t, EventFn fn) {
  HOTC_ASSERT_MSG(t >= now(), "cannot schedule into the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulator::after(Duration delay, EventFn fn) {
  HOTC_ASSERT(delay >= kZeroDuration);
  return queue_.push(now() + delay, std::move(fn));
}

void Simulator::every(Duration period, const std::function<bool()>& keep_going,
                      const std::function<void()>& fn) {
  HOTC_ASSERT(period > kZeroDuration);
  // Self-rescheduling closure.  The closure holds only a weak reference to
  // itself — each scheduled event carries the strong one — so when
  // keep_going turns false and the chain ends, the last strong reference
  // dies with the fired event and the closure is freed (a strong
  // self-capture would be a shared_ptr cycle and leak).
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [this, period, keep_going, fn, weak]() {
    if (!keep_going()) return;
    fn();
    if (auto self = weak.lock()) {
      after(period, [self]() { (*self)(); });
    }
  };
  after(period, [tick]() { (*tick)(); });
}

void Simulator::stream(std::size_t n, std::function<TimePoint(std::size_t)> at,
                       std::function<void(std::size_t)> fire) {
  if (n == 0) return;
  Stream& s = streams_.emplace_back();
  s.at = std::move(at);
  s.fire = std::move(fire);
  s.n = n;
  s.first_seq = queue_.reserve(n);
  schedule_next(s);
}

void Simulator::schedule_next(Stream& s) {
  // Item k+1 is scheduled while item k fires, at now() == at(k), so this
  // one check is both "not in the past" and "non-decreasing".
  const TimePoint t = s.at(s.next);
  HOTC_ASSERT_MSG(t >= now(), "stream times must be non-decreasing");
  queue_.push_reserved(t, s.first_seq + s.next,
                       [this, &s]() { fire_next(s); });
}

void Simulator::fire_next(Stream& s) {
  const std::size_t k = s.next++;
  const bool last = s.next == s.n;
  if (!last) schedule_next(s);
  s.fire(k);
  if (last) {
    // Exhausted: drop the callables and whatever they captured.
    s.at = nullptr;
    s.fire = nullptr;
  }
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++n;
  }
  // Advance the clock to the deadline even if nothing fires there, so that
  // subsequent `after` calls measure from the requested instant.
  if (now() < deadline) advance_to(deadline);
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [t, fn] = queue_.pop();
  HOTC_ASSERT(t >= now());
  advance_to(t);
  fn();
  return true;
}

}  // namespace hotc::sim
