// sim_day: the simulator harness every figure bench uses, replaying a
// simulated day of an Azure-style function population through
// faas::FaasPlatform under the HotC policy (sharing and tiering on).
//
// The timed quantity is wall time inside FaasPlatform::run.  A probe event
// every 30 virtual seconds stamps the wall clock, cutting the run into
// slices; the harness is deterministic, so slice i is the same work in
// every repetition of the day.  On a shared host its speed drifts over
// periods of seconds, so each slice's cost is the minimum over the run's
// repetitions: the composite day is the best observed cost of a fixed
// piece of work.  sim_rps is the day's arrivals over the composite day's
// wall time, and the slice costs double as a latency distribution (wall
// time to simulate 30 s of the day).  Virtual-time outputs must repeat
// exactly across the repetitions of one run.
//
// The day is 12 h.  platform.run queues every arrival up front, so the
// ~230k-event queue makes the harness memory-bound, and it slows when a
// neighbour on the host streams memory.  A 3 h day shrugged that off but
// doubled the spread between seeds: one seed's day ran 20-30 % slower
// than another's on every repeat.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/units.hpp"
#include "e2e.hpp"
#include "faas/platform.hpp"
#include "predict/hybrid.hpp"
#include "workload/population.hpp"

namespace e2e {
namespace {

using hotc::workload::FunctionPopulation;
using hotc::workload::InvocationClass;

constexpr std::size_t kPredictorSamples = 1 << 16;
// One control-tick period; 1440 slices a day.
constexpr auto kSlice = hotc::seconds(30);

struct Sizing {
  std::size_t functions;
  hotc::Duration horizon;
  std::size_t max_live;
};

Sizing sizing(bool short_mode) {
  if (short_mode) return {40, hotc::hours(1), 8};
  return {200, hotc::hours(12), 32};
}

/// The population for a seed, with its class mix pinned: of a fixed number
/// of candidates, drawn from seeds derived from the workload seed, the one
/// closest to the nominal mix.  Closest means, in order of weight: the
/// nominal number of steady functions, their total rate nearest nominal,
/// and periodic and bursty counts within a few of nominal.  The steady
/// head carries ~90 % of all invocations, so without the pin the
/// invocation count of a day swings by ±25 % between seeds; with it every
/// seed gives about the same amount of work, and the seed still picks
/// every rate, period, phase and storm.  The candidate count is fixed, not
/// "until one fits", so that set-up does the same work on every seed.
FunctionPopulation stable_population(std::uint64_t seed,
                                     const Sizing& size) {
  constexpr std::uint64_t kCandidates = 256;
  hotc::workload::PopulationOptions o;
  o.functions = size.functions;
  o.horizon = size.horizon;
  const double fractions[4] = {o.steady_fraction, o.periodic_fraction,
                               o.bursty_fraction, o.rare_fraction};
  const double total = fractions[0] + fractions[1] + fractions[2] +
                       fractions[3];
  std::size_t want[4];
  std::size_t assigned = 0;
  for (int k = 0; k < 3; ++k) {
    want[k] = static_cast<std::size_t>(std::lround(
        static_cast<double>(size.functions) * fractions[k] / total));
    assigned += want[k];
  }
  want[3] = size.functions - assigned;
  // Mean of the generator's steady rate range, U(6, 30) per minute
  // (workload/population.cpp).
  const double steady_rate = 18.0 * static_cast<double>(want[0]);

  std::optional<FunctionPopulation> best;
  double best_score = 0.0;
  for (std::uint64_t attempt = 0; attempt < kCandidates; ++attempt) {
    o.seed = mix_seed(seed, 0x9000 + attempt);
    FunctionPopulation pop = FunctionPopulation::generate(o);
    std::size_t count[4] = {};
    double rate = 0.0;
    for (const auto& p : pop.profiles()) {
      ++count[static_cast<int>(p.klass)];
      if (p.klass == InvocationClass::kSteady) rate += p.rate_per_minute;
    }
    const auto off = [&](int k, double slack) {
      const double d = std::abs(static_cast<double>(count[k]) -
                                static_cast<double>(want[k]));
      return std::max(0.0, d - slack);
    };
    // One steady function too many or too few outweighs any rate error
    // within 20 %; the rate counts in units of 2 %.
    const double score = 10.0 * off(0, 0) +
                         std::abs(rate - steady_rate) / (0.02 * steady_rate) +
                         off(1, 3) + off(2, 2);
    if (!best || score < best_score) {
      best = std::move(pop);
      best_score = score;
    }
  }
  return std::move(*best);
}

/// Forwarding decorator around the controller's default predictor: times
/// observe() and predict() per call.  Installed only in the traced run.
struct PredictorProbe {
  Reservoir observe_ns{kPredictorSamples, 21};
  Reservoir predict_ns{kPredictorSamples, 22};
  std::uint64_t calls = 0;
};

class TimedPredictor : public hotc::predict::Predictor {
 public:
  TimedPredictor(hotc::predict::PredictorPtr inner, PredictorProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void observe(double actual) override {
    const auto start = Clock::now();
    inner_->observe(actual);
    probe_.observe_ns.add(elapsed_ns(start));
    ++probe_.calls;
  }
  [[nodiscard]] double predict() const override {
    const auto start = Clock::now();
    const double forecast = inner_->predict();
    probe_.predict_ns.add(elapsed_ns(start));
    ++probe_.calls;
    return forecast;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::size_t observations() const override {
    return inner_->observations();
  }
  void restart_smoothing() override { inner_->restart_smoothing(); }
  [[nodiscard]] double smoothed_value() const override {
    return inner_->smoothed_value();
  }
  [[nodiscard]] int markov_region() const override {
    return inner_->markov_region();
  }

 private:
  static double elapsed_ns(Clock::time_point start) {
    return static_cast<double>(ns_since(start, Clock::now()));
  }

  hotc::predict::PredictorPtr inner_;
  PredictorProbe& probe_;
};

/// Everything one simulated day produced.
struct Day {
  double wall_s = 0.0;
  std::size_t completed = 0;
  std::uint64_t failed = 0;
  hotc::metrics::LatencySummary summary;
  hotc::ControllerStats stats;
  hotc::pool::PoolStats pool;
  std::uint64_t demotes = 0;
  std::uint64_t store_restores = 0;
  std::uint64_t store_evictions = 0;
  std::uint64_t store_rejected = 0;
  std::uint64_t store_entries = 0;
  std::vector<double> slice_us;
  double tick_us = 0.0;  // traced only

  [[nodiscard]] double sim_rps(std::size_t arrivals) const {
    return static_cast<double>(arrivals) / wall_s;
  }
  /// The virtual-time outputs that must repeat exactly.
  [[nodiscard]] bool same_virtual_outputs(const Day& o) const {
    return summary.count == o.summary.count &&
           summary.cold_count == o.summary.cold_count &&
           summary.p50_ms == o.summary.p50_ms &&
           summary.p99_ms == o.summary.p99_ms &&
           summary.mean_ms == o.summary.mean_ms &&
           stats.cold_starts == o.stats.cold_starts &&
           stats.restores == o.stats.restores &&
           stats.reuses == o.stats.reuses &&
           stats.donor_hits == o.stats.donor_hits &&
           stats.evicted == o.stats.evicted && demotes == o.demotes;
  }
};

Day run_day(const hotc::workload::ArrivalList& arrivals,
            const hotc::workload::ConfigMix& mix, const Sizing& size,
            PredictorProbe* probe) {
  hotc::faas::PlatformOptions opt;
  opt.policy = hotc::faas::PolicyKind::kHotC;
  opt.hotc.limits.max_live = size.max_live;  // below the function count
  opt.hotc.enable_sharing = true;
  opt.hotc.tiering.enabled = true;
  opt.hotc.tiering.store.capacity_bytes = hotc::gib(1);
  if (probe != nullptr) {
    opt.hotc.predictor_factory = [probe] {
      return std::make_unique<TimedPredictor>(
          std::make_unique<hotc::predict::HybridPredictor>(), *probe);
    };
  }
  hotc::faas::FaasPlatform platform(opt);

  // Slice probe: stop once the run's own horizon (last arrival plus the
  // platform's trailing slack) has passed, so the event queue drains.
  const hotc::TimePoint end = arrivals.back().at + opt.trailing_slack;
  std::vector<Clock::time_point> marks;
  marks.reserve(static_cast<std::size_t>(end / kSlice) + 4);
  hotc::sim::Simulator& sim = platform.simulator();
  sim.every(kSlice, [&sim, end] { return sim.now() < end; },
            [&marks] { marks.push_back(Clock::now()); });

  Day day;
  marks.push_back(Clock::now());
  const hotc::metrics::LatencyRecorder recorder =
      platform.run(arrivals, mix);
  marks.push_back(Clock::now());
  day.wall_s = seconds_between(marks.front(), marks.back());

  day.summary = recorder.summary();
  day.completed = platform.completed().size();
  day.failed = platform.failed_requests();
  const hotc::HotCController& controller = *platform.hotc_controller();
  day.stats = controller.stats();
  day.pool = controller.pool_view().stats_snapshot();
  if (const auto* store = controller.checkpoint_store()) {
    day.demotes = store->demotes();
    day.store_restores = store->restores();
    day.store_evictions = store->evictions();
    day.store_rejected = store->rejected();
    day.store_entries = store->entries();
  }
  for (std::size_t i = 1; i < marks.size(); ++i) {
    day.slice_us.push_back(static_cast<double>(ns_since(marks[i - 1],
                                                        marks[i])) /
                           1e3);
  }
  if (probe != nullptr) {
    // Algorithm-3 tick cost on the end-state controller, timed directly.
    std::vector<double> ticks;
    for (int i = 0; i < 21; ++i) {
      const auto t0 = Clock::now();
      platform.hotc_controller()->adaptive_tick();
      ticks.push_back(static_cast<double>(ns_since(t0, Clock::now())) / 1e3);
    }
    day.tick_us = median(std::move(ticks));
  }
  return day;
}

void check_day(Result& r, const Day& day, std::size_t arrivals) {
  r.attempted += arrivals;
  const std::uint64_t resolved = day.completed + day.failed;
  if (day.failed > 0) {
    r.violate(std::to_string(day.failed) + " simulated requests failed",
              day.failed);
  }
  if (resolved != arrivals) {
    r.violate("completed + failed = " + std::to_string(resolved) +
                  ", arrivals = " + std::to_string(arrivals),
              arrivals > resolved ? arrivals - resolved : 0);
  }
  if (day.stats.requests != arrivals) {
    r.violate("ControllerStats.requests = " +
              std::to_string(day.stats.requests) + ", arrivals = " +
              std::to_string(arrivals));
  }
  if (day.demotes !=
      day.store_restores + day.store_evictions + day.store_entries) {
    r.violate("snapshot store ledger: demotes " + std::to_string(day.demotes) +
              " != restores + evictions + entries " +
              std::to_string(day.store_restores + day.store_evictions +
                             day.store_entries));
  }
}

/// The composite day: each slice's minimum cost over the repetitions.
std::vector<double> composite_slices(Result& r, const std::vector<Day>& days) {
  std::vector<double> slices = days.front().slice_us;
  for (const Day& day : days) {
    if (day.slice_us.size() != slices.size()) {
      r.violate("repetitions of the day cut into different slice counts");
      continue;
    }
    for (std::size_t i = 0; i < slices.size(); ++i) {
      slices[i] = std::min(slices[i], day.slice_us[i]);
    }
  }
  return slices;
}

double sum_seconds(const std::vector<double>& slice_us) {
  double s = 0.0;
  for (const double us : slice_us) s += us / 1e6;
  return s;
}

}  // namespace

Result run_sim_day(const Args& args) {
  // A set-up takes about 20 ms, the first few slower while the allocator
  // warms up.  It runs once before the first day and this many times after
  // each untraced day, and setup_s is the median: spread over the run, the
  // repeats sample the host as the timed days do.
  constexpr int kSetupsPerDay = 6;
  const Sizing size = sizing(args.short_mode);
  Result r;
  r.load_threads = 1;
  // One CPU for the whole run: a migration costs the harness its caches.
  if (const std::vector<int> cpus = allowed_cpus(); !cpus.empty()) {
    pin_self({cpus.back()});
  }

  struct DayInputs {
    hotc::workload::ArrivalList arrivals;
    hotc::workload::ConfigMix mix;
  };
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    const FunctionPopulation pop = stable_population(args.seed, size);
    DayInputs in{pop.arrivals(), hotc::workload::ConfigMix::sibling_functions(
                                     size.functions, 5)};
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return in;
  };
  const DayInputs timed = set_up();
  const hotc::workload::ArrivalList* const arrivals = &timed.arrivals;
  const hotc::workload::ConfigMix* const mix = &timed.mix;
  const std::size_t n = arrivals->size();

  // A traced run alternates untraced and traced days, so the overhead
  // compares two composites measured over the same stretch of time.
  std::vector<Day> days;
  std::vector<Day> traced;
  PredictorProbe probe;
  const auto start = Clock::now();
  do {
    days.push_back(run_day(*arrivals, *mix, size, nullptr));
    for (int k = 0; k < kSetupsPerDay; ++k) set_up();  // dropped
    if (args.trace) {
      probe = PredictorProbe{};  // keep one day's calls
      traced.push_back(run_day(*arrivals, *mix, size, &probe));
    }
  } while (seconds_between(start, Clock::now()) < args.seconds);

  for (const std::vector<Day>* set : {&days, &traced}) {
    for (const Day& day : *set) {
      check_day(r, day, n);
      if (!day.same_virtual_outputs(days.front())) {
        r.violate("virtual-time outputs differ between repetitions");
      }
    }
  }
  const std::vector<double> slices = composite_slices(r, days);
  const double sim_rps = static_cast<double>(n) / sum_seconds(slices);
  const Day& first = days.front();

  if (args.trace) {
    const Day& t = traced.back();
    const double traced_rps =
        static_cast<double>(n) / sum_seconds(composite_slices(r, traced));
    r.add("obs.trace_overhead_pct", (sim_rps - traced_rps) / sim_rps * 100.0,
          "%", "sim_rps untraced vs traced, " +
                   std::to_string(traced.size()) + " days each");
    r.add("predict.observe_ns", probe.observe_ns.percentile(50), "ns",
          "median, n=" + std::to_string(probe.observe_ns.seen()));
    r.add("predict.predict_ns", probe.predict_ns.percentile(50), "ns",
          "median, n=" + std::to_string(probe.predict_ns.seen()));
    r.add("predict.calls", static_cast<double>(probe.calls), "count",
          "one day");
    r.add("hotc.tick_us", t.tick_us, "us",
          "adaptive_tick() on the end-state controller, median of 21");
    r.add("hotc.reuses", static_cast<double>(t.stats.reuses), "count");
    r.add("hotc.prewarms", static_cast<double>(t.stats.prewarm_launches),
          "count");
    r.add("hotc.retired", static_cast<double>(t.stats.retired), "count");
    r.add("hotc.evicted", static_cast<double>(t.stats.evicted), "count");
    r.add("hotc.restores", static_cast<double>(t.stats.restores), "count");
    r.add("hotc.donor_hits", static_cast<double>(t.stats.donor_hits),
          "count");
    r.add("pool.hit_ratio", t.pool.hit_rate(), "ratio");
    r.add("pool.evictions", static_cast<double>(t.pool.evictions), "count");
    r.add("share.donor_hit_ratio",
          ratio(t.stats.donor_hits, t.stats.donor_lookups), "ratio");
    r.add("snapshot.restore_ratio", ratio(t.store_restores, t.demotes),
          "ratio");
    r.add("snapshot.demotes", static_cast<double>(t.demotes), "count");
    r.add("snapshot.rejected", static_cast<double>(t.store_rejected),
          "count");

    std::vector<const hotc::spec::RunSpec*> specs;
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 1 << 16); ++i) {
      specs.push_back(&mix->at((*arrivals)[i].config_index).spec);
    }
    add_spec_engine_metrics(r, specs);
    r.add("workload.gen_s", median(setup_s), "s", setups_note(static_cast<int>(setup_s.size())));
    return r;
  }

  std::vector<double> rps;
  for (const Day& day : days) rps.push_back(day.sim_rps(n));
  const std::string slice_note =
      "wall time per " + std::to_string(kSlice / hotc::seconds(1)) +
      " s simulated slice, n=" + std::to_string(slices.size());
  r.add("throughput_rps", sim_rps, "req/s", "= sim_rps");
  r.add("sim_rps", sim_rps, "req/s",
        std::to_string(n) + " arrivals, slice minima over " +
            std::to_string(days.size()) + " days; per-day median " +
            std::to_string(median(rps)));
  r.add("latency_p50_us", percentile_of(slices, 50), "us", slice_note);
  r.add("latency_p99_us", percentile_of(slices, 99), "us", slice_note);
  r.add("sim_latency_p50_ms", first.summary.p50_ms, "ms",
        "virtual time, n=" + std::to_string(first.summary.count));
  r.add("sim_latency_p99_ms", first.summary.p99_ms, "ms",
        "virtual time, n=" + std::to_string(first.summary.count));
  r.add("full_cold_ratio",
        ratio(first.stats.cold_starts - first.stats.restores,
              first.stats.requests),
        "ratio", "(cold_starts - restores) / requests");
  r.add("setup_s", median(setup_s), "s", setups_note(static_cast<int>(setup_s.size())));
  return r;
}

}  // namespace e2e
