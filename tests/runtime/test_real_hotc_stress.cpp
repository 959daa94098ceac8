// RealHotC under concurrent load (ctest label `tsan`): many submitters
// racing the per-key plan table and the worker lanes, handlers that wait
// on each other, and shutdown mid-flight.  At quiescence every completed
// request is counted under exactly one outcome and both ledgers balance.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/real_hotc.hpp"
#include "workload/mix.hpp"

namespace hotc::runtime {
namespace {

constexpr auto kResolveTimeout = std::chrono::seconds(60);

std::string echo(const std::string& in) { return "ok:" + in; }

/// reuses + donor_hits + restores + cold_starts == completed, the pool's
/// flow identity, and the store's demotes == restores + evictions +
/// entries — all read at quiescence.
void expect_balanced(const RealHotC& hotc, std::uint64_t completed) {
  EXPECT_EQ(hotc.reuses() + hotc.donor_hits() + hotc.restores() +
                hotc.cold_starts(),
            completed);
  EXPECT_TRUE(hotc.warm_pool().check_conservation().ok());
  const auto& store = hotc.snapshot_store();
  EXPECT_EQ(store.demotes(),
            store.restores() + store.evictions() + store.entries());
}

// 4 submitters x 4 workers over 40 sibling keys squeezed into 8 warm
// slots, with sharing and tiering on: hits, donor conversions, restores
// and cold starts all race.  Every 17th handler throws.
TEST(RealHotCStress, MixedKeysSharingAndTiering) {
  RealOptions opt;
  opt.worker_threads = 4;
  opt.cold_start_scale = 0.0001;
  opt.max_warm = 8;
  opt.enable_sharing = true;
  opt.tiering.enabled = true;
  opt.tiering.store.capacity_bytes = mib(2048);
  RealHotC hotc(opt);
  const workload::ConfigMix mix = workload::ConfigMix::sibling_functions(40, 4);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::atomic<std::uint64_t> completed{0}, failed{0}, wrong{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t]() {
      std::vector<std::future<RealOutcome>> futures;
      std::vector<std::string> args;
      for (int i = 0; i < kPerThread; ++i) {
        const auto& entry =
            mix.at(static_cast<std::size_t>(t * 7 + i * 3) % mix.size());
        args.push_back(std::to_string(t) + "/" + std::to_string(i));
        const bool throws = (t * kPerThread + i) % 17 == 0;
        futures.push_back(hotc.submit(
            entry.spec, entry.app,
            [throws](const std::string& in) -> std::string {
              if (throws) throw std::runtime_error("injected");
              return echo(in);
            },
            args.back()));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        if (futures[i].wait_for(kResolveTimeout) !=
            std::future_status::ready) {
          ADD_FAILURE() << "request " << t << "/" << i << " never resolved";
          return;
        }
        try {
          if (futures[i].get().payload != echo(args[i])) ++wrong;
        } catch (const std::runtime_error&) {
          ++failed;
        }
        ++completed;
      }
    });
  }
  for (auto& s : submitters) s.join();
  hotc.shutdown();

  EXPECT_EQ(completed.load(), std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(failed.load(), std::uint64_t{(kThreads * kPerThread + 16) / 17});
  expect_balanced(hotc, completed.load());
  EXPECT_GT(hotc.reuses(), 0u);
}

// N handlers that wait on each other with N workers (the bench's
// pre-warm): every one must run, so none may sit in the lane of a worker
// blocked in another.  Rounds alternate one shared key and distinct keys.
TEST(RealHotCStress, MutuallyWaitingHandlersAllRun) {
  for (const std::size_t workers : {2u, 4u}) {
    RealOptions opt;
    opt.worker_threads = workers;
    opt.cold_start_scale = 0.0;
    opt.max_warm = 64;
    RealHotC hotc(opt);
    const workload::ConfigMix mix = workload::ConfigMix::qr_web_service(8);
    std::uint64_t completed = 0;
    for (int round = 0; round < 100; ++round) {
      std::latch all_running(static_cast<std::ptrdiff_t>(workers));
      std::vector<std::future<RealOutcome>> futures;
      for (std::size_t i = 0; i < workers; ++i) {
        const auto& entry = mix.at(round % 2 == 0 ? 0 : i % mix.size());
        futures.push_back(hotc.submit(entry.spec, entry.app,
                                      [&all_running](const std::string& in) {
                                        all_running.arrive_and_wait();
                                        return echo(in);
                                      },
                                      "r"));
      }
      for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(kResolveTimeout), std::future_status::ready)
            << workers << " workers, round " << round
            << ": a handler was stranded behind a blocked worker";
        EXPECT_EQ(f.get().payload, echo("r"));
        ++completed;
      }
    }
    expect_balanced(hotc, completed);
  }
}

// shutdown() races four submitters while most of their requests are still
// queued: every future resolves — executed requests with their payload,
// those submitted after shutdown with today's empty outcome — and exactly
// the executed ones are counted.
TEST(RealHotCStress, ShutdownWhileRequestsInFlight) {
  RealOptions opt;
  opt.worker_threads = 4;
  opt.cold_start_scale = 0.0001;
  opt.max_warm = 8;
  opt.tiering.enabled = true;
  RealHotC hotc(opt);
  const workload::ConfigMix mix = workload::ConfigMix::qr_web_service(16);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<std::uint64_t> ran{0};
  std::atomic<std::uint64_t> executed{0}, rejected{0}, unresolved{0};
  std::atomic<bool> shut{false};
  const auto handler = [&ran](const std::string& in) {
    ++ran;
    return echo(in);
  };
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t]() {
      std::vector<std::future<RealOutcome>> futures;
      // Up to kPerThread requests while shutdown() may be under way, then
      // one more once it has returned (surely rejected).
      for (int i = 0; i <= kPerThread; ++i) {
        if (i == kPerThread) {
          while (!shut.load()) std::this_thread::yield();
        }
        const auto& entry = mix.at(static_cast<std::size_t>(t + i) % 16);
        futures.push_back(hotc.submit(entry.spec, entry.app, handler, "x"));
      }
      for (auto& f : futures) {
        if (f.wait_for(kResolveTimeout) != std::future_status::ready) {
          ++unresolved;
          continue;
        }
        const RealOutcome out = f.get();
        if (out.payload.empty()) {
          ++rejected;
        } else {
          EXPECT_EQ(out.payload, echo("x"));
          ++executed;
        }
      }
    });
  }
  while (ran.load() < 100) std::this_thread::yield();
  hotc.shutdown();
  shut = true;
  for (auto& s : submitters) s.join();

  EXPECT_EQ(unresolved.load(), 0u);
  EXPECT_EQ(executed.load() + rejected.load(),
            std::uint64_t{kThreads * (kPerThread + 1)});
  EXPECT_EQ(executed.load(), ran.load());
  EXPECT_GE(rejected.load(), std::uint64_t{kThreads});
  expect_balanced(hotc, executed.load());
}

}  // namespace
}  // namespace hotc::runtime
