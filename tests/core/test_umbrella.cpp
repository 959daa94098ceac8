// Compile-time check: the umbrella header is self-contained and exposes
// the main entry points.
#include "hotc/hotc_all.hpp"

#include <gtest/gtest.h>

namespace hotc {
namespace {

TEST(Umbrella, MainTypesVisible) {
  // Declared first: the registry outlives every owner it collects from.
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.attach_metrics(registry);
  ControllerOptions options;
  options.registry = &registry;
  HotCController controller(engine, options);
  EXPECT_EQ(controller.stats().requests, 0u);
  EXPECT_TRUE(workload::ConfigMix::qr_web_service(1).size() == 1);
  EXPECT_TRUE(scenario::parse_scenario_text("{}").ok() == false);
  EXPECT_FALSE(obs::to_prometheus(registry, "instance=\"hotc\"").empty());
}

}  // namespace
}  // namespace hotc
