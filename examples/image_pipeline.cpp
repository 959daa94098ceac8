// The Fig. 3(a) walkthrough: a serverless image-processing service.
//
// A user uploads a picture; object storage triggers the compression +
// watermark function through the gateway.  This example runs the whole
// scenario on the simulated platform under three provisioning policies and
// prints the user-visible latency for each, plus the HotC pool dynamics.
//
//   $ ./image_pipeline
#include <iostream>

#include "core/table.hpp"
#include "faas/platform.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"

using namespace hotc;

int main() {
  std::cout << "Serverless image pipeline (compress + watermark)\n"
            << "uploads arrive in Poisson bursts; comparing policies\n\n";

  // The image-processing function: 2 MB download from object storage,
  // compression + watermark compute, results written to the volume.
  workload::ConfigEntry entry;
  entry.spec.image = spec::ImageRef{"python", "3.8"};
  entry.spec.network = spec::NetworkMode::kBridge;
  entry.spec.env["PIPELINE"] = "compress,watermark";
  entry.app = engine::apps::image_pipeline();
  const auto mix = workload::ConfigMix::single(entry);

  // A lunch-hour style workload: 0.4 uploads/s for 15 minutes.
  Rng rng(11);
  const auto arrivals = workload::poisson(0.4, minutes(15), rng);
  std::cout << arrivals.size() << " uploads over 15 minutes\n\n";

  Table table({"policy", "mean", "p99", "cold starts"});
  for (const auto policy :
       {faas::PolicyKind::kColdAlways, faas::PolicyKind::kKeepAlive,
        faas::PolicyKind::kHotC}) {
    faas::PlatformOptions opt;
    opt.policy = policy;
    opt.keep_alive = minutes(15);
    faas::FaasPlatform platform(opt);
    const auto recorder = platform.run(arrivals, mix);
    const auto s = recorder.summary();
    table.add_row({to_string(policy), Table::num(s.mean_ms, 1) + "ms",
                   Table::num(s.p99_ms, 1) + "ms",
                   std::to_string(s.cold_count)});

    if (policy == faas::PolicyKind::kHotC) {
      const auto* controller = platform.hotc_controller();
      std::cout << "HotC pool after the run: "
                << controller->runtime_pool().total_available()
                << " warm containers, hit rate "
                << Table::num(
                       controller->runtime_pool().stats().hit_rate() * 100.0,
                       1)
                << "%\n";
      const auto key = spec::RuntimeKey::from_spec(entry.spec);
      std::cout << "adaptive controller saw " << controller->adaptive_ticks()
                << " demand intervals; last forecast "
                << Table::num(controller->current_forecast(key).value_or(0.0),
                              2)
                << " containers\n\n";
    }
  }
  std::cout << table.to_string();
  return 0;
}
