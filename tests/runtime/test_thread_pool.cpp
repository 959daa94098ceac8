#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>

namespace hotc::runtime {
namespace {

// Tasks in these tests are plain callables; RealHotC's are move-only
// request structs run by a member function.
using Pool = ThreadPool<std::function<void()>>;

void call(std::function<void()>& task) { task(); }

/// post() takes its task by reference and moves from it on success.
bool post(Pool& pool, std::function<void()> task) { return pool.post(task); }

TEST(ThreadPool, ExecutesAllTasks) {
  Pool pool(2, call);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(post(pool, [&]() { ++count; }));
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DrainsQueueOnShutdown) {
  Pool pool(1, call);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    post(pool, [&]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++count;
    });
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  Pool pool(1, call);
  pool.shutdown();
  bool ran = false;
  std::function<void()> task = [&ran]() { ran = true; };
  EXPECT_FALSE(pool.post(task));
  ASSERT_TRUE(task);  // a rejected task stays with the caller
  task();
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, DoubleShutdownSafe) {
  Pool pool(2, call);
  pool.shutdown();
  pool.shutdown();
  SUCCEED();
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  Pool pool(0, call);
  EXPECT_EQ(pool.thread_count(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
  Pool pool(1, call);
  std::promise<std::thread::id> id_promise;
  post(pool, [&]() { id_promise.set_value(std::this_thread::get_id()); });
  const auto worker_id = id_promise.get_future().get();
  EXPECT_NE(worker_id, std::this_thread::get_id());
  pool.shutdown();
}

TEST(ThreadPool, ConcurrentPosters) {
  Pool pool(2, call);
  std::atomic<int> count{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&]() {
      for (int i = 0; i < 50; ++i) {
        post(pool, [&]() { ++count; });
      }
    });
  }
  for (auto& t : posters) t.join();
  pool.shutdown();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, CarriesMoveOnlyTasks) {
  ThreadPool<std::unique_ptr<int>> pool(2, [](std::unique_ptr<int>& v) {
    ++*v;
  });
  for (int i = 0; i < 10; ++i) {
    auto task = std::make_unique<int>(i);
    ASSERT_TRUE(pool.post(task));
    EXPECT_EQ(task, nullptr);  // moved into the lane
  }
  pool.shutdown();
}

// Tasks that wait on each other: with N workers, N of them must all be
// running at once.  Rounds repeat so that, every time, some tasks land in
// a lane whose worker is already blocked in the round's first task and
// must be stolen by a worker that is idle or just finished.
TEST(ThreadPool, MutuallyWaitingTasksAllRun) {
  for (const std::size_t workers : {2u, 3u, 4u}) {
    Pool pool(workers, call);
    for (int round = 0; round < 200; ++round) {
      std::latch all_running(static_cast<std::ptrdiff_t>(workers));
      std::vector<std::future<void>> done;
      for (std::size_t i = 0; i < workers; ++i) {
        auto finished = std::make_shared<std::promise<void>>();
        done.push_back(finished->get_future());
        ASSERT_TRUE(post(pool, [&all_running, finished]() {
          all_running.arrive_and_wait();
          finished->set_value();
        }));
      }
      for (auto& f : done) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << workers << " workers, round " << round
            << ": a task was stranded behind a blocked worker";
      }
    }
  }
}

// A worker whose own lane is empty steals: with one worker blocked, every
// task still runs on the other, whichever lane it was queued in.
TEST(ThreadPool, IdleWorkerStealsFromBlockedLane) {
  Pool pool(2, call);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::latch blocked(1);
  post(pool, [&blocked, released]() {
    blocked.count_down();
    released.wait();
  });
  blocked.wait();
  std::atomic<int> count{0};
  std::promise<void> all_done;
  for (int i = 0; i < 50; ++i) {
    post(pool, [&]() {
      if (++count == 50) all_done.set_value();
    });
  }
  EXPECT_EQ(all_done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  release.set_value();
  pool.shutdown();
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace hotc::runtime
