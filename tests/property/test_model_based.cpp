// Model-based property tests: drive a component with random operation
// sequences and check it against a trivially-correct reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "pool/pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace hotc {
namespace {

// ---------------------------------------------------------------------------
// RuntimePool vs a reference map<key, deque<id>>.
class PoolModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  pool::RuntimePool pool;
  std::map<std::string, std::deque<engine::ContainerId>> model;
  std::map<std::string, spec::RuntimeKey> keys;
  std::size_t model_paused = 0;
  std::map<engine::ContainerId, bool> paused_flags;

  auto key_for = [&](int k) {
    const std::string name = "img" + std::to_string(k);
    if (!keys.count(name)) {
      spec::RunSpec s;
      s.image = spec::ImageRef{name, "latest"};
      keys.emplace(name, spec::RuntimeKey::from_spec(s));
    }
    return name;
  };

  engine::ContainerId next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const int k = static_cast<int>(rng.uniform_int(0, 5));
    const std::string name = key_for(k);
    const auto& key = keys.at(name);
    const double op = rng.uniform();

    if (op < 0.40) {  // add_available
      pool::PoolEntry e;
      e.id = next_id++;
      e.key = key;
      e.created_at = seconds(step);
      pool.add_available(e, seconds(step));
      model[name].push_back(e.id);
      paused_flags[e.id] = false;
    } else if (op < 0.75) {  // acquire
      const auto got = pool.acquire(key, seconds(step));
      auto& dq = model[name];
      if (dq.empty()) {
        EXPECT_FALSE(got.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(got->id, dq.front()) << "step " << step;  // FIFO
        if (paused_flags[dq.front()]) --model_paused;
        EXPECT_EQ(got->paused, paused_flags[dq.front()]);
        paused_flags.erase(dq.front());
        dq.pop_front();
      }
    } else if (op < 0.90) {  // remove a random known id (maybe absent)
      auto& dq = model[name];
      engine::ContainerId victim =
          dq.empty() ? 99999 : dq[rng.index(dq.size())];
      const bool removed = pool.remove(key, victim);
      const auto it = std::find(dq.begin(), dq.end(), victim);
      EXPECT_EQ(removed, it != dq.end()) << "step " << step;
      if (it != dq.end()) {
        if (paused_flags[victim]) --model_paused;
        paused_flags.erase(victim);
        dq.erase(it);
      }
    } else {  // mark_paused on a random known id
      auto& dq = model[name];
      if (!dq.empty()) {
        const engine::ContainerId id = dq[rng.index(dq.size())];
        const bool ok = pool.mark_paused(key, id);
        EXPECT_EQ(ok, !paused_flags[id]) << "step " << step;
        if (ok) {
          paused_flags[id] = true;
          ++model_paused;
        }
      }
    }

    // Global invariants after every step.
    std::size_t model_total = 0;
    for (const auto& [n, dq] : model) {
      model_total += dq.size();
      EXPECT_EQ(pool.num_available(keys.at(n)), dq.size());
    }
    ASSERT_EQ(pool.total_available(), model_total);
    ASSERT_EQ(pool.paused_count(), model_paused);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolModelProperty,
                         ::testing::Values(1, 17, 99, 4242));

// ---------------------------------------------------------------------------
// EventQueue vs a reference set of (time, seq).  seq is an explicit
// schedule counter and doubles as the event's payload, so a drain is
// checked event for event, ties included.
class QueueModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueModelProperty, DrainsInExactReferenceOrder) {
  Rng rng(GetParam());
  sim::EventQueue queue;
  std::set<std::pair<TimePoint, std::uint64_t>> reference;
  std::map<std::uint64_t, std::pair<TimePoint, sim::EventId>> live;
  std::vector<sim::EventId> spent;  // fired or cancelled
  std::uint64_t counter = 0;
  std::uint64_t fired = 0;
  TimePoint now = kZeroDuration;

  // Times on a coarse grid near the last pop, so ties are common.
  const auto push = [&] {
    const TimePoint t = now + seconds(rng.uniform_int(0, 8));
    const std::uint64_t seq = counter++;
    const sim::EventId id = queue.push(t, [&fired, seq]() { fired = seq; });
    reference.emplace(t, seq);
    live.emplace(seq, std::make_pair(t, id));
    return id;
  };
  const auto pop = [&] {
    const auto [t_ref, seq_ref] = *reference.begin();
    ASSERT_EQ(queue.next_time(), t_ref);
    auto [t, fn] = queue.pop();
    fn();
    EXPECT_EQ(t, t_ref);
    EXPECT_EQ(fired, seq_ref);
    reference.erase(reference.begin());
    spent.push_back(live.at(seq_ref).second);
    live.erase(seq_ref);
    now = t;
  };
  const auto cancel_live = [&] {
    auto it = live.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.index(live.size())));
    EXPECT_TRUE(queue.cancel(it->second.second));
    reference.erase({it->second.first, it->first});
    spent.push_back(it->second.second);
    live.erase(it);
  };

  for (int i = 0; i < 2000; ++i) {
    const double u = rng.uniform();
    if (u < 0.45 || live.empty()) {
      push();
    } else if (u < 0.70) {
      pop();
    } else if (u < 0.82) {
      cancel_live();
    } else if (u < 0.92 && !spent.empty()) {
      // Cancel after fire, or a second cancel: both refuse.
      EXPECT_FALSE(queue.cancel(spent[rng.index(spent.size())]));
    } else {
      // A stale id after its slot is reused: the next push takes the
      // freed slot, and cancelling the old id must leave it alone.
      cancel_live();
      const sim::EventId stale = spent.back();
      const sim::EventId reused = push();
      EXPECT_EQ(static_cast<std::uint32_t>(reused),
                static_cast<std::uint32_t>(stale));  // same slot
      EXPECT_FALSE(queue.cancel(stale));
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  while (!reference.empty()) pop();
  EXPECT_TRUE(queue.empty());
}

// Simulator streams interleaved with ordinary events at equal times.  A
// stream of n items takes n consecutive counter values when it is set up,
// so the reference orders item k by (at(k), first + k) — the eager
// schedule's order — although the simulator schedules item k+1 only when
// item k fires, after later events at the same time may have been
// scheduled.  Some set-up events schedule a child when they fire; children
// take the counter in firing order, so any slip in the order shows as a
// payload mismatch.
TEST_P(QueueModelProperty, StreamsOrderLikeEagerSchedules) {
  Rng rng(GetParam());
  sim::Simulator sim;
  std::set<std::pair<TimePoint, std::uint64_t>> reference;
  std::vector<std::uint64_t> fired;
  std::uint64_t counter = 0;

  std::uint64_t setup_end = 0;  // payloads below this may spawn a child
  const auto spawns = [&setup_end](std::uint64_t s) {
    return s < setup_end && s % 4 == 0;
  };
  const auto child_delay = [](std::uint64_t s) {
    return seconds(static_cast<std::int64_t>(s % 3));
  };
  std::uint64_t sim_counter = 0;  // the simulator side's child numbering
  const std::function<void(std::uint64_t)> fire = [&](std::uint64_t s) {
    fired.push_back(s);
    if (!spawns(s)) return;
    const std::uint64_t child = sim_counter++;
    sim.after(child_delay(s), [&fired, child]() { fired.push_back(child); });
  };

  for (int i = 0; i < 40; ++i) {
    if (rng.chance(0.3)) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
      std::vector<TimePoint> times;
      TimePoint t = seconds(rng.uniform_int(0, 10));
      for (std::size_t k = 0; k < n; ++k) {
        times.push_back(t);
        t += seconds(rng.uniform_int(0, 2));
      }
      const std::uint64_t first = counter;
      counter += n;
      for (std::size_t k = 0; k < n; ++k) {
        reference.emplace(times[k], first + k);
      }
      sim.stream(
          n, [times](std::size_t k) { return times[k]; },
          [&fire, first](std::size_t k) { fire(first + k); });
    } else {
      const TimePoint t = seconds(rng.uniform_int(0, 30));
      const std::uint64_t s = counter++;
      reference.emplace(t, s);
      sim.at(t, [&fire, s]() { fire(s); });
    }
  }
  setup_end = counter;
  sim_counter = counter;

  std::vector<std::uint64_t> expected;
  while (!reference.empty()) {
    const auto [t, s] = *reference.begin();
    reference.erase(reference.begin());
    expected.push_back(s);
    if (spawns(s)) reference.emplace(t + child_delay(s), counter++);
  }
  sim.run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueModelProperty,
                         ::testing::Values(3, 33, 333));

// ---------------------------------------------------------------------------
// JSON: random documents round-trip through dump/parse at any indent.
class JsonRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Json random_json(Rng& rng, int depth) {
    const double u = rng.uniform();
    if (depth >= 4 || u < 0.35) {
      switch (rng.uniform_int(0, 3)) {
        case 0: return Json(nullptr);
        case 1: return Json(rng.chance(0.5));
        case 2: {
          // Mix integers and awkward doubles.
          if (rng.chance(0.5)) {
            return Json(static_cast<std::int64_t>(
                rng.uniform_int(-1000000, 1000000)));
          }
          return Json(rng.uniform(-1e6, 1e6));
        }
        default: return Json(random_string(rng));
      }
    }
    if (u < 0.65) {
      JsonArray arr;
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 5));
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(random_json(rng, depth + 1));
      }
      return Json(std::move(arr));
    }
    JsonObject obj;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 5));
    for (std::size_t i = 0; i < n; ++i) {
      obj["k" + std::to_string(rng.uniform_int(0, 20))] =
          random_json(rng, depth + 1);
    }
    return Json(std::move(obj));
  }

  std::string random_string(Rng& rng) {
    static const char* kSamples[] = {
        "",      "plain",       "with space", "quote\"inside",
        "back\\", "new\nline",  "tab\ttab",   "unicode: \xC3\xA9",
        "ctrl\x01end", "slash/es",
    };
    return kSamples[rng.index(10)];
  }
};

TEST_P(JsonRoundTripProperty, DumpParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const Json doc = random_json(rng, 0);
    for (const int indent : {0, 2}) {
      const auto parsed = Json::parse(doc.dump(indent));
      ASSERT_TRUE(parsed.ok()) << doc.dump(indent);
      EXPECT_EQ(parsed.value(), doc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(7, 70, 700));

}  // namespace
}  // namespace hotc
