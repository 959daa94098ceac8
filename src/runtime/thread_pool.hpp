// Fixed-size worker pool for the real-execution backend: one request lane
// per worker.
//
// Each worker owns a lane — a ranked mutex, a FIFO and a condition
// variable — so submitters and workers no longer all meet on one lock.
// Tasks travel by value (move-only types welcome) and are executed by the
// `run` callable given at construction, which must not throw.  Dispatch
// rules (DESIGN.md §7):
//   - post() claims a parked worker when one exists (CAS on its idle flag)
//     and queues the task in that worker's lane; otherwise it
//     round-robins over the lanes.
//   - A worker drains its own lane first and steals the oldest task of
//     another lane when its own is empty; it parks only after publishing
//     itself idle and re-checking every lane.
//   - Neither waits on a lane lock another thread holds while some other
//     lane will do: both try-lock first and block only when every lane
//     they could use is held.
//   - No task is stranded behind a blocked worker while another idles:
//     a post that lands in a busy lane, and a worker that leaves queued
//     tasks behind as it starts one, both wake a parked worker, which
//     steals.  N tasks that wait on each other all run on N workers.
// shutdown() stops accepting work, drains every lane and joins.
//
// Scheduler profiling (DESIGN.md §15): when the continuous profiler is
// attached (prof::hooks() non-null), each task's queue delay (post ->
// dequeue) and run time are reported under the pool's tag.  With no
// profiler, post and dequeue each pay one relaxed null-check; the
// timestamps are never read from the clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/prof_hook.hpp"
#include "core/ranked_mutex.hpp"

namespace hotc::runtime {

template <typename Task>
class ThreadPool {
 public:
  using Runner = std::function<void(Task&)>;

  /// `threads` 0 = hardware_concurrency().  `tag` must be a string literal
  /// (static storage duration) — it labels the tasks in scheduler
  /// profiles.
  ThreadPool(std::size_t threads, Runner run, const char* tag = "task");
  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queue a task, moving from it.  Once shutdown() has begun the task is
  /// rejected — left untouched with the caller — and post returns false
  /// (a worker it claimed is woken by the shutdown itself).
  bool post(Task& task);

  /// Stop accepting work, run what is queued, join all workers.
  void shutdown();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    Task task;
    /// Stamped at post time only while a profiler is attached; the epoch
    /// means "do not report" (the profiler appeared mid-queue).
    Clock::time_point enqueued{};
  };

  /// FIFO over a power-of-two ring that only ever grows: once a lane has
  /// seen its peak depth, queueing and dequeueing allocate nothing, so
  /// nothing calls into malloc while a lane lock is held.
  class Ring {
   public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    void push_back(Slot&& slot) {
      if (count_ == slots_.size()) grow();
      slots_[(head_ + count_) & (slots_.size() - 1)].emplace(std::move(slot));
      ++count_;
    }
    Slot& front() { return *slots_[head_]; }
    void pop_front() {
      slots_[head_].reset();
      head_ = (head_ + 1) & (slots_.size() - 1);
      --count_;
    }

   private:
    void grow() {
      std::vector<std::optional<Slot>> bigger(
          std::max<std::size_t>(1, 2 * slots_.size()));
      for (std::size_t i = 0; i < count_; ++i) {
        bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
      }
      slots_.swap(bigger);
      head_ = 0;
    }

    std::vector<std::optional<Slot>> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// What a submitter or worker touches under the lock sits in the first
  /// two cache lines; the condition variable, used only to park, in its
  /// own.
  struct alignas(64) Lane {
    explicit Lane(std::uint32_t index)
        : mu(LockRank::kThreadPoolQueue, index, "runtime.lane") {}
    RankedMutex mu;
    /// queue's size, readable without the lock: the steal probe, and the
    /// parking worker's re-check.
    std::atomic<std::size_t> depth{0};
    Ring queue HOTC_GUARDED_BY(mu);
    /// Set by whoever claimed this lane's parked worker (CAS on its idle
    /// flag): the worker leaves its wait only for this or shutdown.
    bool woken HOTC_GUARDED_BY(mu) = false;
    alignas(64) std::condition_variable_any cv;  // RankedMutex: not std::mutex
  };

  /// Queue `slot` in `lane` unless shutdown has begun; `claimed` also
  /// hands the lane's parked worker its wake-up.
  bool push(Lane& lane, Slot& slot, bool claimed) HOTC_REQUIRES(lane.mu) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    lane.queue.push_back(std::move(slot));
    lane.depth.fetch_add(1);
    if (claimed) lane.woken = true;
    return true;
  }
  std::optional<Slot> pop(Lane& lane) HOTC_REQUIRES(lane.mu) {
    if (lane.queue.empty()) return std::nullopt;
    std::optional<Slot> slot(std::move(lane.queue.front()));
    lane.queue.pop_front();
    lane.depth.fetch_sub(1);
    return slot;
  }

  void worker_loop(std::size_t self);
  /// Pop the oldest task of the own lane, else steal another lane's.
  std::optional<Slot> take(std::size_t self);
  void execute(Slot& slot);
  /// Publish idle, re-check every lane, then sleep until claimed or
  /// stopping.  The wait holds the lane lock through a RankedLock, which
  /// clang's analysis cannot model.
  void park(std::size_t self) HOTC_NO_THREAD_SAFETY_ANALYSIS;
  /// Claim a parked worker (CAS its idle flag), scanning from lane `from`;
  /// returns its lane, or the lane count when none is parked.
  std::size_t claim_idle(std::size_t from);
  /// Claim one parked worker, if any, and wake it to steal.
  void wake_idle();
  [[nodiscard]] bool any_idle() const;
  [[nodiscard]] bool pending() const;
  /// Every lane empty, checked under each lane's lock (the exit test).
  [[nodiscard]] bool drained();

  Runner run_;
  const char* tag_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Parked, claimable workers, packed together: this array is read on
  /// every post but written only when a worker parks or is claimed.
  std::unique_ptr<std::atomic<bool>[]> idle_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
};

template <typename Task>
ThreadPool<Task>::ThreadPool(std::size_t threads, Runner run, const char* tag)
    : run_(std::move(run)), tag_(tag) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // hot-path-alloc: allow-begin — construction
  idle_ = std::make_unique<std::atomic<bool>[]>(threads);
  lanes_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    lanes_.push_back(std::make_unique<Lane>(static_cast<std::uint32_t>(i)));
  }
  // hot-path-alloc: allow-end
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i]() { worker_loop(i); });
  }
}

template <typename Task>
bool ThreadPool<Task>::post(Task& task) {
  // A per-thread cursor spreads claims and round-robin without a counter
  // every submitter would write.
  thread_local std::size_t cursor = 0;
  const std::size_t n = lanes_.size();
  const std::size_t start = cursor++ % n;
  const std::size_t idle = claim_idle(start);
  const bool claimed = idle < n;
  // Clock read only while profiling: the unprofiled post pays a single
  // relaxed null-check for the scheduler collector.
  Slot slot{std::move(task),
            prof::hooks() != nullptr ? Clock::now() : Clock::time_point{}};
  // The claimed worker's lane; otherwise round-robin from `start`,
  // passing over lanes another thread holds right now (a submitter, or a
  // worker mid-pop) and waiting for `start`'s only when all are held.
  std::size_t target = claimed ? idle : start;
  bool placed = false;
  bool accepted = false;
  for (std::size_t i = 0; i < n && !claimed && !placed; ++i) {
    Lane& lane = *lanes_[(start + i) % n];
    if (lane.mu.try_lock()) {
      placed = true;
      target = (start + i) % n;
      accepted = push(lane, slot, false);
      lane.mu.unlock();
    }
  }
  if (!placed) {
    Lane& lane = *lanes_[target];
    const RankedGuard lock(lane.mu);
    accepted = push(lane, slot, claimed);
  }
  if (!accepted) {
    task = std::move(slot.task);  // rejected: hand it back
    return false;
  }
  if (claimed) {
    lanes_[target]->cv.notify_one();
  } else {
    // The lane's worker may be busy or blocked; any parked worker steals.
    // Pairs with park(): this either sees that worker idle, or the
    // worker's re-check sees this task.
    wake_idle();
  }
  return true;
}

template <typename Task>
void ThreadPool<Task>::shutdown() {
  stopping_.store(true);
  for (auto& lane : lanes_) {
    // Taking the lock orders the store before any waiter's next predicate
    // check, so no worker can sleep through the notify.
    { const RankedGuard lock(lane->mu); }
    lane->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

template <typename Task>
void ThreadPool<Task>::worker_loop(std::size_t self) {
  while (true) {
    if (std::optional<Slot> slot = take(self)) {
      // Tasks left queued behind this one go to a parked worker: this one
      // may block in its task.
      if (any_idle() && pending()) wake_idle();
      execute(*slot);
      continue;
    }
    // A post the scan missed checked stopping_ under a lane lock that
    // drained() takes afterwards, so it was rejected: exiting strands
    // nothing.
    if (stopping_.load(std::memory_order_acquire) && drained()) return;
    park(self);
  }
}

template <typename Task>
std::optional<typename ThreadPool<Task>::Slot> ThreadPool<Task>::take(
    std::size_t self) {
  const std::size_t n = lanes_.size();
  // Own lane first, then steal.  The first pass passes over lanes another
  // thread holds right now; only when it finds nothing does a pass wait.
  for (const bool wait : {false, true}) {
    for (std::size_t i = 0; i < n; ++i) {
      Lane& lane = *lanes_[(self + i) % n];
      // A stale zero only defers the task: park() re-checks before
      // sleeping.
      if (lane.depth.load(std::memory_order_relaxed) == 0) continue;
      std::optional<Slot> slot;
      if (wait) {
        const RankedGuard lock(lane.mu);
        slot = pop(lane);
      } else if (lane.mu.try_lock()) {
        slot = pop(lane);
        lane.mu.unlock();
      }
      if (slot) return slot;
    }
  }
  return std::nullopt;
}

template <typename Task>
void ThreadPool<Task>::execute(Slot& slot) {
  // Queue-delay + run-time sample: only when a profiler is attached AND
  // the post stamped an enqueue time.
  const prof::Hooks* hooks = prof::hooks();
  if (hooks == nullptr || slot.enqueued == Clock::time_point{}) {
    run_(slot.task);
    return;
  }
  const auto started = Clock::now();
  run_(slot.task);
  const auto finished = Clock::now();
  const auto ns = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  hooks->task(tag_, ns(started - slot.enqueued), ns(finished - started));
}

template <typename Task>
void ThreadPool<Task>::park(std::size_t self) {
  // Sequentially consistent with post(): a poster bumps a lane's depth
  // and then reads the idle flags; this worker sets its flag and then
  // reads the depths, so at least one of the two sees the other.
  idle_[self].store(true);
  if ((pending() || stopping_.load()) && idle_[self].exchange(false)) {
    return;  // still unclaimed: go steal, or drain for shutdown
  }
  // Parked — or claimed just now, with the claimer's hand-off on its way.
  Lane& own = *lanes_[self];
  RankedLock lock(own.mu);
  while (!own.woken && !stopping_.load(std::memory_order_acquire)) {
    own.cv.wait(lock);
  }
  own.woken = false;
  idle_[self].store(false);  // a shutdown wake leaves it set
}

template <typename Task>
std::size_t ThreadPool<Task>::claim_idle(std::size_t from) {
  const std::size_t n = lanes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = (from + i) % n;
    if (idle_[lane].load() && idle_[lane].exchange(false)) return lane;
  }
  return n;
}

template <typename Task>
void ThreadPool<Task>::wake_idle() {
  const std::size_t idle = claim_idle(0);
  if (idle == lanes_.size()) return;
  Lane& lane = *lanes_[idle];
  {
    const RankedGuard lock(lane.mu);
    lane.woken = true;
  }
  lane.cv.notify_one();
}

template <typename Task>
bool ThreadPool<Task>::any_idle() const {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (idle_[i].load()) return true;
  }
  return false;
}

template <typename Task>
bool ThreadPool<Task>::pending() const {
  for (const auto& lane : lanes_) {
    if (lane->depth.load() != 0) return true;
  }
  return false;
}

template <typename Task>
bool ThreadPool<Task>::drained() {
  for (auto& lane : lanes_) {
    const RankedGuard lock(lane->mu);
    if (!lane->queue.empty()) return false;
  }
  return true;
}

}  // namespace hotc::runtime
