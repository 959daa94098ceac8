#include "scenario/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>

#include "predict/hybrid.hpp"
#include "predict/meta.hpp"
#include "predict/seasonal.hpp"
#include "workload/trace.hpp"

namespace hotc::scenario {
namespace {

[[nodiscard]] Result<engine::HostProfile> host_from(const Json& j) {
  const std::string name = j.string_or("server");
  if (name == "server") return engine::HostProfile::server();
  if (name == "edge_pi") return engine::HostProfile::edge_pi();
  if (name == "edge_tx2") return engine::HostProfile::edge_tx2();
  return make_error<engine::HostProfile>("scenario.bad_host",
                                         "unknown host profile: " + name);
}

[[nodiscard]] Result<faas::PolicyKind> policy_from(const std::string& name) {
  if (name == "cold-always") return faas::PolicyKind::kColdAlways;
  if (name == "keep-alive") return faas::PolicyKind::kKeepAlive;
  if (name == "hotc") return faas::PolicyKind::kHotC;
  // "hotc-sharing" = HotC with cross-key sharing forced on, so one
  // scenario document can compare sharing on vs off over one workload.
  if (name == "hotc-sharing") return faas::PolicyKind::kHotC;
  // "hotc-tiering" = the sharing configuration plus the snapshot tier
  // (DESIGN.md §16), so the same document can show what checkpoint/restore
  // adds on top of the previous best.
  if (name == "hotc-tiering") return faas::PolicyKind::kHotC;
  if (name == "periodic-warmup") return faas::PolicyKind::kPeriodicWarmup;
  return make_error<faas::PolicyKind>("scenario.bad_policy",
                                      "unknown policy: " + name);
}

[[nodiscard]] Result<workload::ArrivalList> workload_from(const Json& w, Rng& rng,
                                            std::size_t configs) {
  const std::string pattern = w["pattern"].string_or("");
  if (pattern.empty()) {
    return make_error<workload::ArrivalList>(
        "scenario.no_pattern", "workload.pattern is required");
  }
  const auto period = seconds_f(w["period_seconds"].number_or(30.0));
  const auto rounds = static_cast<std::size_t>(w["rounds"].number_or(10.0));
  if (pattern == "serial") {
    return workload::serial(
        static_cast<std::size_t>(w["count"].number_or(10.0)), period);
  }
  if (pattern == "parallel") {
    return workload::parallel(
        static_cast<std::size_t>(w["threads"].number_or(10.0)), rounds,
        period);
  }
  if (pattern == "linear-increasing") {
    return workload::linear_increasing(
        static_cast<std::size_t>(w["start"].number_or(2.0)),
        static_cast<std::size_t>(w["step"].number_or(2.0)), rounds, period,
        configs);
  }
  if (pattern == "linear-decreasing") {
    return workload::linear_decreasing(
        static_cast<std::size_t>(w["start"].number_or(20.0)),
        static_cast<std::size_t>(w["step"].number_or(2.0)), rounds, period,
        configs);
  }
  if (pattern == "exponential-increasing") {
    return workload::exponential_increasing(rounds, period, configs);
  }
  if (pattern == "exponential-decreasing") {
    return workload::exponential_decreasing(rounds, period, configs);
  }
  if (pattern == "burst") {
    std::vector<std::size_t> burst_rounds;
    if (w["burst_rounds"].is_array()) {
      for (const auto& r : w["burst_rounds"].as_array()) {
        burst_rounds.push_back(static_cast<std::size_t>(r.as_number()));
      }
    }
    return workload::burst(
        static_cast<std::size_t>(w["base"].number_or(8.0)),
        w["factor"].number_or(10.0), burst_rounds, rounds, period, configs);
  }
  if (pattern == "poisson") {
    return workload::poisson(
        w["rate_per_second"].number_or(1.0),
        seconds_f(w["duration_seconds"].number_or(600.0)), rng, configs,
        w["zipf"].number_or(0.9));
  }
  if (pattern == "trace") {
    auto counts = workload::umass_youtube_trace();
    const double scale_down = w["scale_down"].number_or(20.0);
    for (auto& c : counts) c = std::floor(c / scale_down);
    const auto start = std::min(
        counts.size(),
        static_cast<std::size_t>(w["start_minute"].number_or(0.0)));
    counts.erase(counts.begin(), counts.begin() + static_cast<long>(start));
    const auto limit =
        static_cast<std::size_t>(w["minutes"].number_or(240.0));
    counts.resize(std::min(counts.size(), limit));
    return workload::from_counts(counts, minutes(1), configs, &rng,
                                 w["zipf"].number_or(0.9));
  }
  return make_error<workload::ArrivalList>("scenario.bad_pattern",
                                           "unknown pattern: " + pattern);
}

[[nodiscard]] Result<workload::ConfigMix> mix_from(const Json& m) {
  const std::string kind = m["kind"].string_or("qr");
  if (kind == "qr") {
    return workload::ConfigMix::qr_web_service(
        static_cast<std::size_t>(m["variants"].number_or(10.0)));
  }
  if (kind == "image-recognition") {
    return workload::ConfigMix::image_recognition();
  }
  if (kind == "siblings") {
    return workload::ConfigMix::sibling_functions(
        static_cast<std::size_t>(m["functions"].number_or(20.0)),
        static_cast<std::size_t>(m["images"].number_or(5.0)));
  }
  if (kind == "custom") {
    // Fully user-defined functions: a docker-run command line (parsed by
    // the real run-spec parser, so typos fail loudly) plus an app model.
    if (!m["functions"].is_array() || m["functions"].size() == 0) {
      return make_error<workload::ConfigMix>(
          "scenario.bad_mix", "custom mix needs a non-empty functions array");
    }
    std::vector<workload::ConfigEntry> entries;
    for (const auto& f : m["functions"].as_array()) {
      auto parsed = spec::parse_run_command(f["run"].string_or(""));
      if (!parsed.ok()) {
        return make_error<workload::ConfigMix>(
            "scenario.bad_function",
            "functions[" + std::to_string(entries.size()) +
                "].run: " + parsed.error().message);
      }
      workload::ConfigEntry e;
      e.spec = std::move(parsed).take();
      const Json& app = f["app"];
      e.app.name = app["name"].string_or("custom-fn");
      e.app.app_init_seconds = app["init_seconds"].number_or(0.05);
      e.app.exec_seconds = app["exec_seconds"].number_or(0.05);
      e.app.memory = mib_f(app["memory_mb"].number_or(64.0));
      e.app.download_bytes = mib_f(app["download_mb"].number_or(0.0));
      e.app.volume_writes = mib_f(app["volume_write_mb"].number_or(0.0));
      entries.push_back(std::move(e));
    }
    return workload::ConfigMix(std::move(entries));
  }
  return make_error<workload::ConfigMix>("scenario.bad_mix",
                                         "unknown mix kind: " + kind);
}

/// Every key the "hotc" block may carry: an unknown one is a typo or a
/// removed option, and ignoring it would run another experiment.
constexpr std::array<std::string_view, 15> kHotcOptions = {
    "max_live", "memory_threshold", "prewarm", "retire", "subset_key",
    "sharing", "share_max_cost_ratio", "adaptive_interval_seconds",
    "pause_idle_minutes", "tiering", "tiering_alpha", "snapshot_capacity_mb",
    "snapshot_per_tenant_mb", "alpha", "predictor"};

[[nodiscard]] Result<bool> apply_hotc_options(const Json& h, ControllerOptions& opt) {
  if (h.is_object()) {
    for (const auto& option : h.as_object()) {
      if (std::find(kHotcOptions.begin(), kHotcOptions.end(),
                    option.first) == kHotcOptions.end()) {
        return make_error<bool>("scenario.unknown_option",
                                "unknown hotc option: " + option.first);
      }
    }
  }
  if (h["max_live"].is_number()) {
    opt.limits.max_live =
        static_cast<std::size_t>(h["max_live"].as_number());
  }
  if (h["memory_threshold"].is_number()) {
    opt.limits.memory_threshold = h["memory_threshold"].as_number();
  }
  opt.enable_prewarm = h["prewarm"].bool_or(opt.enable_prewarm);
  opt.enable_retire = h["retire"].bool_or(opt.enable_retire);
  opt.use_subset_key = h["subset_key"].bool_or(opt.use_subset_key);
  opt.enable_sharing = h["sharing"].bool_or(opt.enable_sharing);
  if (h["share_max_cost_ratio"].is_number()) {
    opt.share_max_cost_ratio = h["share_max_cost_ratio"].as_number();
  }
  if (h["adaptive_interval_seconds"].is_number()) {
    opt.adaptive_interval =
        seconds_f(h["adaptive_interval_seconds"].as_number());
  }
  if (h["pause_idle_minutes"].is_number()) {
    opt.pause_idle_after =
        seconds_f(h["pause_idle_minutes"].as_number() * 60.0);
  }
  opt.tiering.enabled = h["tiering"].bool_or(opt.tiering.enabled);
  if (h["tiering_alpha"].is_number()) {
    opt.tiering.alpha = h["tiering_alpha"].as_number();
  }
  if (h["snapshot_capacity_mb"].is_number()) {
    opt.tiering.store.capacity_bytes =
        mib_f(h["snapshot_capacity_mb"].as_number());
  }
  if (h["snapshot_per_tenant_mb"].is_number()) {
    opt.tiering.store.per_tenant_bytes =
        mib_f(h["snapshot_per_tenant_mb"].as_number());
  }
  const double alpha = h["alpha"].number_or(0.8);
  const std::string predictor = h["predictor"].string_or("hybrid");
  if (predictor == "hybrid") {
    opt.predictor_factory = [alpha] {
      predict::HybridOptions ho;
      ho.alpha = alpha;
      return std::make_unique<predict::HybridPredictor>(ho);
    };
  } else if (predictor == "es") {
    opt.predictor_factory = [alpha] {
      return std::make_unique<predict::ExponentialSmoothing>(alpha);
    };
  } else if (predictor == "seasonal") {
    opt.predictor_factory = [] {
      return std::make_unique<predict::SeasonalPredictor>();
    };
  } else if (predictor == "meta") {
    opt.predictor_factory = predict::make_meta_predictor;
  } else {
    return make_error<bool>("scenario.bad_predictor",
                            "unknown predictor: " + predictor);
  }
  return true;
}

}  // namespace

[[nodiscard]] Result<Scenario> parse_scenario(const Json& doc) {
  if (!doc.is_object()) {
    return make_error<Scenario>("scenario.not_object",
                                "scenario must be a JSON object");
  }
  auto host = host_from(doc["host"]);
  if (!host.ok()) return Result<Scenario>(host.error());
  engine::HostProfile host_profile = host.value();
  if (doc["host_memory_mb"].is_number()) {
    // Memory-pressure scenarios cap the profile without needing a whole
    // new host preset.
    host_profile.memory_total = mib_f(doc["host_memory_mb"].as_number());
  }
  auto mix = mix_from(doc["mix"]);
  if (!mix.ok()) return Result<Scenario>(mix.error());
  Rng rng(static_cast<std::uint64_t>(doc["seed"].number_or(2021.0)));
  auto arrivals = workload_from(doc["workload"], rng, mix.value().size());
  if (!arrivals.ok()) return Result<Scenario>(arrivals.error());

  Scenario out{
      doc["name"].string_or("(unnamed)"), host_profile, {}, {}, {},
      std::move(arrivals).take(), std::move(mix).take()};

  std::vector<std::string> names;
  if (doc["policies"].is_array()) {
    for (const auto& p : doc["policies"].as_array()) {
      if (!p.is_string()) {
        return make_error<Scenario>("scenario.bad_policy",
                                    "policies entries must be strings");
      }
      names.push_back(p.as_string());
    }
  } else {
    names.push_back(doc["policy"].string_or("hotc"));
  }
  if (names.empty()) {
    return make_error<Scenario>("scenario.no_policy",
                                "at least one policy required");
  }
  for (const auto& name : names) {
    auto policy = policy_from(name);
    if (!policy.ok()) return Result<Scenario>(policy.error());
    out.policies.push_back(policy.value());
    out.policy_labels.push_back(name);
  }

  out.base_options.host = out.host;
  if (doc["keep_alive_minutes"].is_number()) {
    out.base_options.keep_alive =
        seconds_f(doc["keep_alive_minutes"].as_number() * 60.0);
  }
  auto hotc_ok = apply_hotc_options(doc["hotc"], out.base_options.hotc);
  if (!hotc_ok.ok()) return Result<Scenario>(hotc_ok.error());
  return out;
}

[[nodiscard]] Result<Scenario> parse_scenario_text(const std::string& text) {
  auto doc = Json::parse(text);
  if (!doc.ok()) return Result<Scenario>(doc.error());
  return parse_scenario(doc.value());
}

Json ScenarioResult::to_json() const {
  JsonArray arr;
  for (const auto& r : runs) {
    JsonObject o;
    o["policy"] = r.policy;
    o["mean_ms"] = r.summary.mean_ms;
    o["p50_ms"] = r.summary.p50_ms;
    o["p99_ms"] = r.summary.p99_ms;
    o["cold"] = static_cast<std::int64_t>(r.summary.cold_count);
    o["requests"] = static_cast<std::int64_t>(r.summary.count);
    o["failed"] = static_cast<std::int64_t>(r.failed);
    o["donor_lookups"] = static_cast<std::int64_t>(r.donor_lookups);
    o["donor_hits"] = static_cast<std::int64_t>(r.donor_hits);
    o["respec_rejected"] = static_cast<std::int64_t>(r.respec_rejected);
    o["checkpoints"] = static_cast<std::int64_t>(r.checkpoints);
    o["restores"] = static_cast<std::int64_t>(r.restores);
    arr.emplace_back(std::move(o));
  }
  JsonObject top;
  top["name"] = name;
  top["results"] = Json(std::move(arr));
  return Json(std::move(top));
}

ScenarioResult run_scenario(const Scenario& scenario) {
  ScenarioResult out;
  out.name = scenario.name;
  for (std::size_t i = 0; i < scenario.policies.size(); ++i) {
    faas::PlatformOptions opt = scenario.base_options;
    opt.policy = scenario.policies[i];
    if (scenario.policy_labels[i] == "hotc-sharing") {
      opt.hotc.enable_sharing = true;
    }
    if (scenario.policy_labels[i] == "hotc-tiering") {
      // Tiering rides on top of the sharing configuration so the label
      // isolates exactly what the snapshot tier adds.
      opt.hotc.enable_sharing = true;
      opt.hotc.tiering.enabled = true;
    }
    faas::FaasPlatform platform(opt);
    PolicyResult r;
    r.policy = scenario.policy_labels[i];
    r.summary = platform.run(scenario.arrivals, scenario.mix).summary();
    r.failed = platform.failed_requests();
    if (HotCController* c = platform.hotc_controller()) {
      r.donor_lookups = c->stats().donor_lookups;
      r.donor_hits = c->stats().donor_hits;
      r.respec_rejected = c->stats().respec_rejected;
      r.checkpoints = c->stats().checkpoints;
      r.restores = c->stats().restores;
    }
    out.runs.push_back(std::move(r));
  }
  return out;
}

}  // namespace hotc::scenario
