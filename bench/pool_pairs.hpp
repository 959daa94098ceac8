// The pool-pair fixture: the one acquire/release micro-loop behind every
// bench that prices something against a pool operation pair — Fig. 15(c)
// tracing, bench_prof (a) profiler hooks, bench_diagnosis (d) exemplars
// and bench_pool_concurrency's striping tax.  Each bench keeps its own
// estimator (best-of or median of interleaved rounds), pair and rep
// counts and threshold; only the keys, the pre-population and the loop
// live here.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "pool/pool.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::bench {

constexpr std::size_t kPairKeys = 64;
constexpr std::size_t kWarmPerKey = 2;

/// kPairKeys runtime keys of one python:3.8 image, distinct by env.
inline std::vector<spec::RuntimeKey> pair_keys() {
  std::vector<spec::RuntimeKey> keys;
  keys.reserve(kPairKeys);
  for (std::size_t i = 0; i < kPairKeys; ++i) {
    spec::RunSpec s;
    s.image = spec::ImageRef{"python", "3.8"};
    s.network = spec::NetworkMode::kBridge;
    s.env["IDX"] = std::to_string(i);
    keys.push_back(spec::RuntimeKey::from_spec(s));
  }
  return keys;
}

/// Pool kWarmPerKey runtimes of every key (ids 1, 2, ...; each created
/// and returned at `seconds(id)`), so the timed loop never misses.
template <typename Pool>
void prepopulate(Pool& pool, const std::vector<spec::RuntimeKey>& keys) {
  engine::ContainerId next_id = 1;
  for (const auto& key : keys) {
    for (std::size_t j = 0; j < kWarmPerKey; ++j) {
      pool::PoolEntry e;
      e.id = next_id++;
      e.key = key;
      e.created_at = seconds(static_cast<std::int64_t>(e.id));
      pool.add_available(e, e.created_at);
    }
  }
}

/// No span between acquire and release.
struct NoSpan {
  void operator()(int, const spec::RuntimeKey&, TimePoint, bool) const {}
};

/// Time `pairs` iterations of acquire -> span(i, key, now, hit) ->
/// add_available over uniformly drawn keys; returns ns per pair.  A miss
/// (only possible on an unpopulated pool) admits a fresh runtime instead.
template <typename Pool, typename Span = NoSpan>
double time_pairs_ns(Pool& pool, const std::vector<spec::RuntimeKey>& keys,
                     int pairs, const Span& span = {}) {
  Rng rng(7);
  std::int64_t tick = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < pairs; ++i) {
    const auto& key = keys[rng.index(keys.size())];
    const TimePoint now = seconds(tick++);
    auto got = pool.acquire(key, now);
    span(i, key, now, got.has_value());
    if (got.has_value()) {
      pool.add_available(*got, now);
    } else {
      pool::PoolEntry fresh;
      fresh.id = 1'000'000ull + static_cast<engine::ContainerId>(i);
      fresh.key = key;
      fresh.created_at = now;
      pool.add_available(fresh, now);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(pairs);
}

}  // namespace hotc::bench
