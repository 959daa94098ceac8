// Concurrent first sightings of overlapping specs: every thread must get
// the one published handle per key (the same address), and the table must
// hold exactly one handle per distinct key.  Built with
// -DHOTC_SANITIZE=thread (ctest -L tsan) this also proves the lock-free
// find() racing the locked publish race-free.
#include "engine/function_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace hotc::engine {
namespace {

TEST(FunctionTableConcurrency, OverlappingPreparesShareOneHandlePerKey) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 48;
  constexpr int kRounds = 20;
  const Registry registry;
  const CostModel cost(HostProfile::server());
  FunctionTable table(registry, cost);

  // Each key also has a command-only variant, which must land on the same
  // handle as its base spec.
  std::vector<spec::RunSpec> specs;
  const char* images[] = {"python", "node", "golang"};
  for (int k = 0; k < kKeys; ++k) {
    spec::RunSpec s;
    s.image = spec::ImageRef{images[k % 3], "latest"};
    s.env["FUNC"] = "table-race-" + std::to_string(k);
    specs.push_back(s);
    s.command = "variant";
    specs.push_back(s);
  }

  // Per thread, per spec: the handle address it was given.
  std::vector<std::vector<const FunctionHandle*>> seen(
      kThreads, std::vector<const FunctionHandle*>(specs.size(), nullptr));
  // Strides coprime with the spec count: each thread visits every spec
  // each round, in its own order, so first sightings collide.
  constexpr std::size_t kStride[kThreads] = {1, 5, 7, 11};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const std::size_t s =
              (i * kStride[t] + static_cast<std::size_t>(round)) %
              specs.size();
          const FunctionHandle& fn = table.prepare(specs[s]);
          if (seen[t][s] == nullptr) seen[t][s] = &fn;
          EXPECT_EQ(seen[t][s], &fn);
          EXPECT_EQ(table.find(fn.key.id()), &fn);
          EXPECT_EQ(fn.compat(), spec::CompatClass::from_spec(specs[s]));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<const FunctionHandle*> distinct;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_NE(seen[t][s], nullptr);
      EXPECT_EQ(seen[t][s], seen[0][s]) << "spec " << s << " thread " << t;
    }
    // The command-only variant shares its base spec's handle.
    if (s % 2 == 1) {
      EXPECT_EQ(seen[0][s], seen[0][s - 1]);
    }
    distinct.insert(seen[0][s]);
  }
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kKeys));
}

}  // namespace
}  // namespace hotc::engine
