// The lock-rank auditor must (a) stay out of the way of rank-respecting
// code, and (b) abort deterministically on the first inversion.  The
// death tests use AuditedRankedMutex so they prove the auditor fires in
// every build flavour, including release where RankedMutex itself is the
// zero-cost alias.
#include "core/ranked_mutex.hpp"

#include <gtest/gtest.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/prof.hpp"

namespace hotc {
namespace {

using Audited = AuditedRankedMutex;

TEST(RankedMutex, DescendingThroughBandsSucceeds) {
  Audited router(LockRank::kClusterRouter, 0, "router");
  Audited gateway(LockRank::kGateway, 0, "gateway");
  Audited shard(LockRank::kPoolShard, 0, "shard");
  Audited log(LockRank::kLogSink, 0, "log");
  const std::lock_guard<Audited> l1(router);
  const std::lock_guard<Audited> l2(gateway);
  const std::lock_guard<Audited> l3(shard);
  const std::lock_guard<Audited> l4(log);
}

TEST(RankedMutex, SameBandIncreasingSequenceSucceeds) {
  // The sharded pool's lock_all(): same band, ascending shard index.
  std::vector<std::unique_ptr<Audited>> shards;
  for (std::uint32_t i = 0; i < 8; ++i) {
    shards.push_back(
        std::make_unique<Audited>(LockRank::kPoolShard, i, "shard"));
  }
  std::vector<std::unique_lock<Audited>> locks;
  for (auto& shard : shards) locks.emplace_back(*shard);
  // Unlock happens front-to-back (non-LIFO), which the tracker permits.
  locks.clear();
  // The full round trip is repeatable.
  for (auto& shard : shards) locks.emplace_back(*shard);
}

TEST(RankedMutex, ReacquireAfterReleaseSucceeds) {
  Audited shard(LockRank::kPoolShard, 3, "shard");
  Audited gateway(LockRank::kGateway, 0, "gateway");
  {
    const std::lock_guard<Audited> lock(shard);
  }
  // Holding nothing: the lower-ordered gateway is fine now.
  const std::lock_guard<Audited> lock(gateway);
}

TEST(RankedMutex, TryLockTracksLikeLock) {
  Audited gateway(LockRank::kGateway, 0, "gateway");
  Audited shard(LockRank::kPoolShard, 0, "shard");
  ASSERT_TRUE(gateway.try_lock());
  ASSERT_TRUE(shard.try_lock());
  shard.unlock();
  gateway.unlock();
}

TEST(RankedMutex, ThreadsHaveIndependentHeldStacks) {
  Audited shard(LockRank::kPoolShard, 5, "shard");
  Audited gateway(LockRank::kGateway, 0, "gateway");
  const std::lock_guard<Audited> held_here(shard);
  // Another thread holds nothing, so the lower-ordered gateway lock is
  // legal there even while this thread holds a shard.
  std::thread other([&]() { const std::lock_guard<Audited> lock(gateway); });
  other.join();
}

TEST(RankedMutex, ReleaseAliasAcceptsAnyOrder) {
  // The zero-cost flavour does no tracking: inverted order is the caller's
  // problem (and the audit build's job to catch before release ships).
  BasicRankedMutex<false> shard(LockRank::kPoolShard, 0, "shard");
  BasicRankedMutex<false> gateway(LockRank::kGateway, 0, "gateway");
  shard.lock();
  gateway.lock();
  shard.unlock();
  gateway.unlock();
}

TEST(RankedMutex, LibraryMutexMatchesBuildFlavour) {
  // Compiles and locks regardless of which alias this build selected.
  RankedMutex mu(LockRank::kLogSink, 0, "probe");
  RankedLock lock(mu);
  EXPECT_TRUE(lock.owns_lock());
}

// The contended path of both flavours: a bounded spin, then a blocking
// lock, timed once when a profiler is attached.
template <typename Mutex>
class ContendedRankedMutex : public ::testing::Test {};
using Flavours = ::testing::Types<BasicRankedMutex<false>, Audited>;
TYPED_TEST_SUITE(ContendedRankedMutex, Flavours);

std::chrono::nanoseconds thread_cpu_time() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

/// Hold `mu` for `hold` while another thread runs `waiter`, which starts
/// after `mu` is taken and must find it held.
template <typename Mutex, typename Waiter>
void contend(Mutex& mu, std::chrono::milliseconds hold, Waiter waiter) {
  mu.lock();
  std::latch started(1);
  std::thread other([&]() {
    EXPECT_FALSE(mu.try_lock());
    started.count_down();
    waiter();
  });
  started.wait();
  std::this_thread::sleep_for(hold);
  mu.unlock();
  other.join();
}

// A waiter that spun for the whole hold would burn 50 ms of CPU; a
// bounded spin then a sleep in the kernel burns microseconds.
TYPED_TEST(ContendedRankedMutex, LongHoldBlocksAfterABoundedSpin) {
  TypeParam mu(LockRank::kPoolShard, 0, "test.long_hold");
  std::chrono::nanoseconds spent{};
  contend(mu, std::chrono::milliseconds(50), [&]() {
    const auto cpu0 = thread_cpu_time();
    mu.lock();
    spent = thread_cpu_time() - cpu0;
    mu.unlock();
  });
  EXPECT_LT(spent, std::chrono::milliseconds(5));
}

// The wait timer starts before the spin and stops once, whichever of the
// spin or the block ends it.
TYPED_TEST(ContendedRankedMutex, ProfilerSeesOneWaitCoveringTheHold) {
  static constexpr const char* kSite = "test.profiled_hold";
  obs::Profiler::reset();
  obs::ProfOptions options;
  options.sampler = false;
  obs::Profiler profiler(options);
  ASSERT_TRUE(profiler.start());
  TypeParam mu(LockRank::kPoolShard, 0, kSite);
  contend(mu, std::chrono::milliseconds(20), [&]() {
    mu.lock();
    mu.unlock();
  });
  profiler.stop();
  std::uint64_t count = 0;
  std::uint64_t wait_ns = 0;
  for (const obs::ContentionEntry& e : profiler.snapshot().contention) {
    if (std::string_view(e.site) != kSite) continue;
    count += e.count;
    wait_ns += e.wait_ns;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_GE(wait_ns, 15'000'000u);
}

using RankedMutexDeathTest = ::testing::Test;

TEST(RankedMutexDeathTest, CrossBandInversionAborts) {
  Audited gateway(LockRank::kGateway, 0, "gateway");
  Audited shard(LockRank::kPoolShard, 0, "shard");
  EXPECT_DEATH(
      {
        const std::lock_guard<Audited> inner(shard);
        const std::lock_guard<Audited> outer(gateway);  // inversion
      },
      "lock rank violation");
}

TEST(RankedMutexDeathTest, SameBandSequenceInversionAborts) {
  // Exactly the bug lock_all() prevents: shard 2 before shard 1.
  Audited shard1(LockRank::kPoolShard, 1, "shard");
  Audited shard2(LockRank::kPoolShard, 2, "shard");
  EXPECT_DEATH(
      {
        const std::lock_guard<Audited> later(shard2);
        const std::lock_guard<Audited> earlier(shard1);  // inversion
      },
      "lock rank violation");
}

TEST(RankedMutexDeathTest, SelfRelockAborts) {
  Audited shard(LockRank::kPoolShard, 0, "shard");
  EXPECT_DEATH(
      {
        shard.lock();
        shard.lock();  // self-deadlock, caught as equal-order acquisition
      },
      "lock rank violation");
}

TEST(RankedMutexDeathTest, ReleasingUnheldAborts) {
  Audited shard(LockRank::kPoolShard, 0, "shard");
  EXPECT_DEATH(shard.unlock(), "does not hold");
}

}  // namespace
}  // namespace hotc
