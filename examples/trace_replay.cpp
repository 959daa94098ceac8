// Replay a day-shaped campus trace (Fig. 11) through the platform and
// watch HotC's adaptive pool follow demand through the burst, the
// afternoon decline and the evening rise.
//
//   $ ./trace_replay
#include <cmath>
#include <iostream>
#include <sstream>

#include "core/table.hpp"
#include "faas/platform.hpp"
#include "obs/export.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"
#include "workload/trace.hpp"

using namespace hotc;

int main() {
  std::cout << "Trace replay: day-shaped workload through HotC\n\n";

  // Scale the per-minute trace down 25x so the demo finishes fast, and
  // replay the interesting half of the day (T600..T1440).
  auto counts = workload::umass_youtube_trace();
  std::vector<double> window(counts.begin() + 600, counts.end());
  for (auto& c : window) c = std::floor(c / 25.0);

  Rng rng(5);
  const auto arrivals =
      workload::from_counts(window, seconds(60), 5, &rng);
  const auto mix = workload::ConfigMix::qr_web_service(5);
  std::cout << arrivals.size() << " requests over " << window.size()
            << " minutes (5 runtime types)\n\n";

  obs::Registry registry;
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.hotc.adaptive_interval = minutes(1);
  opt.registry = &registry;
  faas::FaasPlatform platform(opt);
  const auto recorder = platform.run(arrivals, mix);

  // Hourly report: demand, latency, cold starts.
  Table table({"hour of window", "requests", "mean latency", "cold"});
  for (std::size_t h = 0; h * 60 < window.size(); ++h) {
    const TimePoint from = minutes(60) * static_cast<std::int64_t>(h);
    const auto s = recorder.summary_between(from, from + minutes(60));
    if (s.count == 0) continue;
    table.add_row({std::to_string(h), std::to_string(s.count),
                   Table::num(s.mean_ms, 1) + "ms",
                   std::to_string(s.cold_count)});
  }
  std::cout << table.to_string() << "\n";

  const auto s = recorder.summary();
  const auto* controller = platform.hotc_controller();
  std::cout << "overall: " << s.count << " requests, mean "
            << Table::num(s.mean_ms, 1) << "ms, cold fraction "
            << Table::num(s.cold_fraction() * 100.0, 2) << "%\n";
  std::cout << "controller: " << controller->stats().prewarm_launches
            << " predictive pre-warms, " << controller->stats().retired
            << " retirements, " << controller->stats().evicted
            << " pressure evictions\n\n";

  // What a monitoring stack would scrape from this instance right now:
  // the engine's occupancy, resources and totals.
  const std::string shown[] = {
      "hotc_engine_containers_live",   "hotc_engine_containers_idle",
      "hotc_engine_containers_busy",   "hotc_engine_memory_used_bytes",
      "hotc_engine_swap_used_bytes",   "hotc_engine_cpu_utilization",
      "hotc_engine_launches_total",    "hotc_engine_execs_total",
      "hotc_engine_launch_failures_total"};
  std::cout << "Prometheus snapshot (engine lines):\n";
  std::istringstream metrics_text(
      obs::to_prometheus(registry, "instance=\"hotc\""));
  std::string line;
  while (std::getline(metrics_text, line)) {
    for (const std::string& name : shown) {
      if (line.rfind(name + "{", 0) == 0) std::cout << "  " << line << "\n";
    }
  }
  return 0;
}
