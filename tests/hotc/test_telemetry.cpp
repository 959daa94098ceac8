// Prometheus export of the engine and the controller through the metrics
// registry: each owner's collector reads its own ledger at snapshot time,
// so every ledger value appears once, under one name, equal to the ledger.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "engine/app.hpp"
#include "faas/platform.hpp"
#include "hotc/controller.hpp"
#include "obs/export.hpp"
#include "workload/mix.hpp"
#include "workload/population.hpp"

namespace hotc {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

std::string export_text(const obs::Registry& registry,
                        const std::string& instance = "hotc") {
  return obs::to_prometheus(registry, "instance=\"" + instance + "\"");
}

TEST(Telemetry, EngineOnlyExport) {
  // Declared first: the registry outlives every owner it collects from.
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.attach_metrics(registry);
  const std::string text = export_text(registry);
  EXPECT_NE(text.find("# TYPE hotc_engine_containers_live gauge"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_engine_containers_live{instance=\"hotc\"} 0"),
            std::string::npos);
  // Controller metrics absent without a controller.
  EXPECT_EQ(text.find("hotc_requests_total"), std::string::npos);
}

TEST(Telemetry, CountersReflectActivity) {
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.preload_image(python_spec().image);
  engine.attach_metrics(registry);
  ControllerOptions options;
  options.registry = &registry;
  HotCController ctl(engine, options);
  for (int i = 0; i < 3; ++i) {
    ctl.handle(python_spec(), engine::apps::qr_encoder(),
               [](Result<RequestOutcome>) {});
    sim.run();
  }
  const std::string text = export_text(registry);
  EXPECT_NE(text.find("hotc_requests_total{instance=\"hotc\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_cold_starts_total{instance=\"hotc\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_reuses_total{instance=\"hotc\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_pool_available{instance=\"hotc\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_engine_execs_total{instance=\"hotc\"} 3"),
            std::string::npos);
}

TEST(Telemetry, CustomInstanceLabel) {
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::edge_pi());
  engine.attach_metrics(registry);
  const std::string text = export_text(registry, "edge-7");
  EXPECT_NE(text.find("{instance=\"edge-7\"}"), std::string::npos);
}

TEST(Telemetry, EveryLineWellFormed) {
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.attach_metrics(registry);
  ControllerOptions options;
  options.registry = &registry;
  HotCController ctl(engine, options);
  const std::string text = export_text(registry);
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
    } else {
      // name{labels} value
      EXPECT_NE(line.find("{instance="), std::string::npos) << line;
      EXPECT_NE(line.find("} "), std::string::npos) << line;
      ++samples;
    }
  }
  EXPECT_GE(samples, 15);
}

/// Unlabelled counter and gauge samples of an export, by name; a name that
/// appears twice maps to -1.
std::map<std::string, double> unlabelled_values(
    const obs::RegistrySnapshot& snap) {
  std::map<std::string, double> out;
  for (const auto& s : snap) {
    if (s.kind == obs::MetricKind::kHistogram || !s.labels.empty()) continue;
    const bool fresh = out.emplace(s.name, s.value).second;
    if (!fresh) out[s.name] = -1.0;
  }
  return out;
}

TEST(Telemetry, EachLedgerValueExportedUnderOneName) {
  // A 1 h sharing + tiering day over more functions than max_live and a
  // two-dump store, so donation, retirement, demotion, restore and both
  // kinds of eviction all fire.
  workload::PopulationOptions popt;
  popt.functions = 20;
  popt.horizon = hours(1);
  popt.seed = 7;
  const auto population = workload::FunctionPopulation::generate(popt);
  const auto mix = workload::ConfigMix::sibling_functions(popt.functions, 4);

  obs::Registry registry;
  obs::Tracer tracer(256, &registry);
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.registry = &registry;
  opt.tracer = &tracer;
  opt.hotc.limits.max_live = 6;
  opt.hotc.enable_sharing = true;
  opt.hotc.tiering.enabled = true;
  opt.hotc.tiering.store.capacity_bytes = mib(6);
  faas::FaasPlatform platform(opt);
  platform.run(population.arrivals(), mix);

  const HotCController& ctl = *platform.hotc_controller();
  const ControllerStats& st = ctl.stats();
  const snapshot::CheckpointStore& store = *ctl.checkpoint_store();
  const engine::ContainerEngine& engine = platform.engine();
  const auto num = [](auto v) { return static_cast<double>(v); };
  // Every ledger value, under its one exported name.
  const std::map<std::string, double> ledger = {
      {"hotc_requests_total", num(st.requests)},
      {"hotc_cold_starts_total", num(st.cold_starts)},
      {"hotc_reuses_total", num(st.reuses)},
      {"hotc_share_donor_lookups_total", num(st.donor_lookups)},
      {"hotc_share_donor_hits_total", num(st.donor_hits)},
      {"hotc_share_respec_rejected_total", num(st.respec_rejected)},
      {"hotc_share_respec_seconds", st.donor_respec_seconds},
      {"hotc_cold_start_seconds", st.cold_start_seconds},
      {"hotc_restores_total", num(st.restores)},
      {"hotc_checkpoints_total", num(st.checkpoints)},
      {"hotc_controller_prewarm_total", num(st.prewarm_launches)},
      {"hotc_controller_retire_total", num(st.retired)},
      {"hotc_controller_evict_total", num(st.evicted)},
      {"hotc_drift_restarts_total", num(st.drift_restarts)},
      {"hotc_pool_idle_container_seconds", st.idle_container_seconds},
      {"hotc_pool_available", num(ctl.pool_view().total_available())},
      {"hotc_pool_paused", num(ctl.pool_view().paused_count())},
      {"hotc_snapshot_demotes_total", num(store.demotes())},
      {"hotc_snapshot_restores_total", num(store.restores())},
      {"hotc_snapshot_evictions_total", num(store.evictions())},
      {"hotc_snapshot_rejected_total", num(store.rejected())},
      {"hotc_snapshot_store_bytes", num(store.total_bytes())},
      {"hotc_snapshot_store_entries", num(store.entries())},
      {"hotc_share_registry_found_total",
       num(ctl.donor_registry()->found())},
      {"hotc_trace_recorded_total", num(tracer.recorder().recorded())},
      {"hotc_trace_dropped_total", num(tracer.recorder().dropped())},
      {"hotc_engine_launches_total", num(engine.launches())},
      {"hotc_engine_execs_total", num(engine.execs())},
      {"hotc_engine_containers_live", num(engine.live_count())},
  };
  // The run exercised every path the ledgers count.
  EXPECT_GT(st.donor_hits, 0u);
  EXPECT_GT(st.restores, 0u);
  EXPECT_GT(st.evicted, 0u);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_GT(st.prewarm_launches, 0u);
  EXPECT_GT(st.retired, 0u);

  const auto values = unlabelled_values(registry.snapshot());
  for (const auto& [name, value] : ledger) {
    const auto it = values.find(name);
    ASSERT_NE(it, values.end()) << name;
    EXPECT_DOUBLE_EQ(it->second, value) << name;
  }
  // The per-key counts add up to the controller's.
  double key_requests = 0.0;
  double key_cold = 0.0;
  for (const auto& s : registry.snapshot()) {
    if (s.name == "hotc_key_requests_total") key_requests += s.value;
    if (s.name == "hotc_key_cold_total") key_cold += s.value;
  }
  EXPECT_DOUBLE_EQ(key_requests, num(st.requests));
  EXPECT_DOUBLE_EQ(key_cold, num(st.cold_starts));

  // No second name for any of those facts.
  const std::string text = export_text(registry);
  for (const char* dropped :
       {"hotc_donor_lookups_total", "hotc_donor_hits_total",
        "hotc_respec_rejected_total", "hotc_share_registry_lookups_total",
        "hotc_prewarm_launches_total", "hotc_retired_total",
        "hotc_evicted_total", "hotc_controller_live_containers",
        "hotc_controller_pooled_containers", "hotc_pool_hit_rate",
        "hotc_pool_shard_", "hotc_prof_"}) {
    EXPECT_EQ(text.find(dropped), std::string::npos) << dropped;
  }
}

TEST(Telemetry, DestroyedControllerLeavesTheSnapshot) {
  obs::Registry registry;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.preload_image(python_spec().image);
  const auto has = [&registry](const std::string& name) {
    for (const auto& s : registry.snapshot()) {
      if (s.name == name) return true;
    }
    return false;
  };
  {
    ControllerOptions options;
    options.registry = &registry;
    options.tiering.enabled = true;
    options.enable_sharing = true;
    auto ctl = std::make_unique<HotCController>(engine, options);
    ctl->handle(python_spec(), engine::apps::qr_encoder(),
                [](Result<RequestOutcome>) {});
    sim.run();
    EXPECT_TRUE(has("hotc_requests_total"));
    EXPECT_TRUE(has("hotc_key_requests_total"));
    EXPECT_TRUE(has("hotc_snapshot_store_bytes"));
  }
  // The controller, its store and its donor index are gone; the registry
  // keeps the pushed instruments and reads nothing of theirs.
  EXPECT_FALSE(has("hotc_requests_total"));
  EXPECT_FALSE(has("hotc_key_requests_total"));
  EXPECT_FALSE(has("hotc_snapshot_store_bytes"));
  EXPECT_FALSE(has("hotc_share_registry_found_total"));
  EXPECT_TRUE(has("hotc_share_respec_duration_ms"));
}

}  // namespace
}  // namespace hotc
