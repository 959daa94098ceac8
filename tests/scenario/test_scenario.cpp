#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hotc::scenario {
namespace {

const char* kMinimal = R"({
  "workload": {"pattern": "serial", "count": 5, "period_seconds": 30},
  "mix": {"kind": "qr", "variants": 1}
})";

TEST(Scenario, MinimalDocumentParses) {
  auto sc = parse_scenario_text(kMinimal);
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(sc.value().arrivals.size(), 5u);
  EXPECT_EQ(sc.value().mix.size(), 1u);
  ASSERT_EQ(sc.value().policies.size(), 1u);
  EXPECT_EQ(sc.value().policies[0], faas::PolicyKind::kHotC);  // default
  EXPECT_EQ(sc.value().host.name, "poweredge-t430");
}

TEST(Scenario, FullDocumentParses) {
  auto sc = parse_scenario_text(R"({
    "name": "full",
    "host": "edge_pi",
    "policies": ["cold-always", "keep-alive", "hotc"],
    "keep_alive_minutes": 5,
    "hotc": {
      "max_live": 50, "prewarm": false, "retire": false,
      "subset_key": true, "adaptive_interval_seconds": 10,
      "pause_idle_minutes": 2, "alpha": 0.3, "predictor": "meta"
    },
    "workload": {"pattern": "parallel", "threads": 4, "rounds": 3},
    "mix": {"kind": "qr", "variants": 4},
    "seed": 7
  })");
  ASSERT_TRUE(sc.ok());
  const Scenario& s = sc.value();
  EXPECT_EQ(s.name, "full");
  EXPECT_EQ(s.host.name, "raspberry-pi-3");
  EXPECT_EQ(s.policies.size(), 3u);
  EXPECT_EQ(s.base_options.keep_alive, minutes(5));
  EXPECT_EQ(s.base_options.hotc.limits.max_live, 50u);
  EXPECT_FALSE(s.base_options.hotc.enable_prewarm);
  EXPECT_TRUE(s.base_options.hotc.use_subset_key);
  EXPECT_EQ(s.base_options.hotc.adaptive_interval, seconds(10));
  EXPECT_EQ(s.base_options.hotc.pause_idle_after, minutes(2));
  EXPECT_EQ(s.arrivals.size(), 12u);
}

TEST(Scenario, EveryPatternParses) {
  const char* patterns[] = {
      R"("pattern": "serial", "count": 3)",
      R"("pattern": "parallel", "threads": 2, "rounds": 2)",
      R"("pattern": "linear-increasing", "rounds": 3)",
      R"("pattern": "linear-decreasing", "rounds": 3)",
      R"("pattern": "exponential-increasing", "rounds": 3)",
      R"("pattern": "exponential-decreasing", "rounds": 3)",
      R"("pattern": "burst", "rounds": 3, "burst_rounds": [1])",
      R"("pattern": "poisson", "rate_per_second": 0.5,
         "duration_seconds": 60)",
      R"("pattern": "trace", "minutes": 10, "scale_down": 10)",
  };
  for (const char* p : patterns) {
    const std::string text = std::string(R"({"workload": {)") + p +
                             R"(}, "mix": {"variants": 2}})";
    auto sc = parse_scenario_text(text);
    ASSERT_TRUE(sc.ok()) << p << ": "
                         << (sc.ok() ? "" : sc.error().to_string());
    EXPECT_FALSE(sc.value().arrivals.empty()) << p;
  }
}

TEST(Scenario, ValidationErrors) {
  EXPECT_EQ(parse_scenario_text("[]").error().code, "scenario.not_object");
  EXPECT_EQ(parse_scenario_text("{bad json").error().code, "json.parse");
  EXPECT_EQ(parse_scenario_text(R"({"workload": {}})").error().code,
            "scenario.no_pattern");
  EXPECT_EQ(parse_scenario_text(
                R"({"host": "mainframe",
                    "workload": {"pattern": "serial"}})")
                .error()
                .code,
            "scenario.bad_host");
  EXPECT_EQ(parse_scenario_text(
                R"({"policy": "magic",
                    "workload": {"pattern": "serial"}})")
                .error()
                .code,
            "scenario.bad_policy");
  EXPECT_EQ(parse_scenario_text(
                R"({"workload": {"pattern": "serial"},
                    "mix": {"kind": "blockchain"}})")
                .error()
                .code,
            "scenario.bad_mix");
  EXPECT_EQ(parse_scenario_text(
                R"({"hotc": {"predictor": "crystal-ball"},
                    "workload": {"pattern": "serial"}})")
                .error()
                .code,
            "scenario.bad_predictor");
  EXPECT_EQ(parse_scenario_text(
                R"({"workload": {"pattern": "tidal"}})")
                .error()
                .code,
            "scenario.bad_pattern");
}

TEST(Scenario, RunProducesResultsPerPolicy) {
  auto sc = parse_scenario_text(R"({
    "name": "run test",
    "policies": ["cold-always", "hotc"],
    "workload": {"pattern": "serial", "count": 6, "period_seconds": 20},
    "mix": {"kind": "qr", "variants": 1}
  })");
  ASSERT_TRUE(sc.ok());
  const auto result = run_scenario(sc.value());
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_EQ(result.runs[0].policy, "cold-always");
  EXPECT_EQ(result.runs[0].summary.count, 6u);
  EXPECT_EQ(result.runs[0].summary.cold_count, 6u);
  EXPECT_EQ(result.runs[1].summary.cold_count, 1u);
  EXPECT_LT(result.runs[1].summary.mean_ms, result.runs[0].summary.mean_ms);
}

TEST(Scenario, ResultJsonShape) {
  auto sc = parse_scenario_text(kMinimal);
  ASSERT_TRUE(sc.ok());
  const auto result = run_scenario(sc.value());
  const Json j = result.to_json();
  EXPECT_TRUE(j["results"].is_array());
  ASSERT_EQ(j["results"].size(), 1u);
  const Json& r = j["results"].at(0);
  EXPECT_EQ(r["policy"].as_string(), "hotc");
  EXPECT_DOUBLE_EQ(r["requests"].as_number(), 5.0);
  // Round-trips through the parser.
  EXPECT_EQ(Json::parse(j.dump(2)).value(), j);
}

TEST(Scenario, DeterministicForSameSeed) {
  const char* text = R"({
    "workload": {"pattern": "poisson", "rate_per_second": 1,
                 "duration_seconds": 120},
    "mix": {"variants": 3},
    "seed": 42
  })";
  auto a = parse_scenario_text(text);
  auto b = parse_scenario_text(text);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().arrivals.size(), b.value().arrivals.size());
  const auto ra = run_scenario(a.value());
  const auto rb = run_scenario(b.value());
  EXPECT_DOUBLE_EQ(ra.runs[0].summary.mean_ms, rb.runs[0].summary.mean_ms);
}

TEST(Scenario, UnknownHotcOptionIsRejectedByName) {
  const auto sc = parse_scenario_text(
      R"({"hotc": {"tiering": true, "snapshot_capcity_mb": 512},
          "workload": {"pattern": "serial"}})");
  ASSERT_FALSE(sc.ok());
  EXPECT_EQ(sc.error().code, "scenario.unknown_option");
  EXPECT_NE(sc.error().message.find("snapshot_capcity_mb"),
            std::string::npos);
}

}  // namespace
}  // namespace hotc::scenario

namespace hotc::scenario {
namespace {

TEST(Scenario, CustomMixParsesRunCommands) {
  auto sc = parse_scenario_text(R"({
    "workload": {"pattern": "serial", "count": 4, "period_seconds": 30},
    "mix": {
      "kind": "custom",
      "functions": [
        {"run": "docker run --net=host -e ROLE=api python:3.8 api.py",
         "app": {"name": "api", "init_seconds": 0.2, "exec_seconds": 0.05,
                 "memory_mb": 128}},
        {"run": "docker run --net=bridge openjdk:11 worker.jar",
         "app": {"name": "worker", "exec_seconds": 1.0}}
      ]
    }
  })");
  ASSERT_TRUE(sc.ok()) << (sc.ok() ? "" : sc.error().to_string());
  const auto& mix = sc.value().mix;
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix.at(0).spec.network, spec::NetworkMode::kHost);
  EXPECT_EQ(mix.at(0).spec.env.at("ROLE"), "api");
  EXPECT_EQ(mix.at(0).app.name, "api");
  EXPECT_EQ(mix.at(0).app.memory, mib(128));
  EXPECT_EQ(mix.at(1).spec.image.full(), "openjdk:11");
}

TEST(Scenario, CustomMixRunsEndToEnd) {
  auto sc = parse_scenario_text(R"({
    "policies": ["hotc"],
    "workload": {"pattern": "serial", "count": 4, "period_seconds": 30},
    "mix": {
      "kind": "custom",
      "functions": [
        {"run": "run --net=bridge python:3.8 f.py",
         "app": {"name": "f", "exec_seconds": 0.03}}
      ]
    }
  })");
  ASSERT_TRUE(sc.ok());
  const auto result = run_scenario(sc.value());
  EXPECT_EQ(result.runs[0].summary.count, 4u);
  EXPECT_EQ(result.runs[0].summary.cold_count, 1u);
}

TEST(Scenario, CustomMixValidation) {
  EXPECT_EQ(parse_scenario_text(
                R"({"workload": {"pattern": "serial"},
                    "mix": {"kind": "custom"}})")
                .error()
                .code,
            "scenario.bad_mix");
  EXPECT_EQ(parse_scenario_text(
                R"({"workload": {"pattern": "serial"},
                    "mix": {"kind": "custom",
                            "functions": [{"run": "--no-image-here"}]}})")
                .error()
                .code,
            "scenario.bad_function");
}

}  // namespace
}  // namespace hotc::scenario

#ifdef HOTC_SOURCE_DIR
#include <filesystem>
#include <fstream>
#include <sstream>

namespace hotc::scenario {
namespace {

TEST(Scenario, ShippedScenarioFilesAllParse) {
  const std::filesystem::path dir =
      std::filesystem::path(HOTC_SOURCE_DIR) / "examples" / "scenarios";
  ASSERT_TRUE(std::filesystem::exists(dir));
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    auto sc = parse_scenario_text(buf.str());
    ASSERT_TRUE(sc.ok()) << entry.path() << ": "
                         << (sc.ok() ? "" : sc.error().to_string());
    EXPECT_FALSE(sc.value().arrivals.empty()) << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

}  // namespace
}  // namespace hotc::scenario
#endif  // HOTC_SOURCE_DIR
