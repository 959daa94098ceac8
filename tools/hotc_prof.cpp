// hotc_prof — critical-path attribution from recorded traces.
//
// Drives one simulated scenario with tracing attached, then reconstructs
// per-request timelines from the flight recorder (group spans by trace
// id, order by start time and publication seq) and reports where request
// time actually goes:
//
//   - top-k stages by total critical-path time, with each stage's worst
//     single span and the exemplar trace id that owns it — the id is
//     greppable in OBS_spans.jsonl from hotc_top's cut of the same
//     scenario shape;
//   - the slowest reconstructed request end-to-end;
//   - a stage-ordering check: the fraction of requests whose timeline
//     starts forward → parse → pool_lookup, exactly the lifecycle
//     DESIGN.md documents.  The tool exits non-zero if fewer than 99 %
//     of requests follow it — a recorded trace that cannot reproduce the
//     known stage order means span attribution is broken, which is a CI
//     failure, not a rendering nit.
//
// Artifact: OBS_critical_path.json in the bench output dir.
//
// Usage: hotc_prof [steady|step]       (default: steady)
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/json.hpp"
#include "obs/prof.hpp"

using namespace hotc;

int main(int argc, char** argv) {
  const std::string scenario = argc > 1 ? argv[1] : "steady";
  if (scenario != "steady" && scenario != "step") {
    std::cerr << "usage: hotc_prof [steady|step]\n";
    return 2;
  }

  const Duration period = seconds(30);
  const auto mix = workload::ConfigMix::sibling_functions(4, 2);
  const auto arrivals =
      scenario == "step"
          ? workload::square_wave(30, 4, 30, 16, period, mix.size())
          : workload::square_wave(40, 6, 0, 0, period, mix.size());

  obs::Registry registry;
  // Ring sized above the span volume of either scenario, so the report
  // reconstructs every request instead of the last ring-full.
  obs::Tracer tracer(65536, &registry);

  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.registry = &registry;
  opt.tracer = &tracer;
  faas::FaasPlatform platform(opt);
  platform.run(arrivals, mix);

  const std::vector<obs::SpanRecord> spans = tracer.recorder().snapshot();
  const obs::CriticalPathReport report = obs::critical_path(spans, 10);
  const std::vector<obs::Stage> prefix = {
      obs::Stage::kForward, obs::Stage::kParse, obs::Stage::kPoolLookup};
  const double ordered = obs::stage_order_fraction(spans, prefix);

  std::cout << banner("hotc_prof — " + scenario + " scenario")
            << obs::render_critical_path(report) << "\n"
            << "stage ordering: " << Table::num(ordered * 100.0, 2)
            << "% of requests follow forward -> parse -> pool_lookup\n"
            << "ring: " << tracer.recorder().recorded() << " recorded, "
            << tracer.recorder().dropped() << " dropped\n";

  JsonObject doc;
  doc["tool"] = Json(std::string("hotc_prof"));
  doc["scenario"] = Json(scenario);
  doc["provenance"] = Json(hotc::bench::provenance());
  doc["traces"] = Json(static_cast<std::int64_t>(report.traces));
  doc["spans"] = Json(static_cast<std::int64_t>(report.spans));
  doc["ordered_prefix_fraction"] = Json(ordered);
  doc["slowest_trace_id"] = Json(std::to_string(report.slowest_trace));
  doc["slowest_ns"] = Json(static_cast<std::int64_t>(report.slowest_ns));
  JsonArray stages;
  for (const auto& cost : report.stages) {
    JsonObject j;
    j["stage"] = Json(std::string(obs::to_string(cost.stage)));
    j["count"] = Json(static_cast<std::int64_t>(cost.count));
    j["total_ns"] = Json(static_cast<std::int64_t>(cost.total_ns));
    j["max_ns"] = Json(static_cast<std::int64_t>(cost.max_ns));
    j["share"] = Json(cost.share);
    j["exemplar_trace_id"] = Json(std::to_string(cost.exemplar_trace));
    stages.push_back(Json(std::move(j)));
  }
  doc["stages"] = Json(std::move(stages));

  const std::string dir = hotc::bench::output_dir();
  const std::string path = dir + "/OBS_critical_path.json";
  if (!hotc::bench::write_file(path, Json(std::move(doc)).dump(2) + "\n")) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";

  if (report.traces == 0 || ordered < 0.99) {
    std::cerr << "hotc_prof: stage-ordering check FAILED (traces="
              << report.traces << ", ordered="
              << ordered << ")\n";
    return 1;
  }
  return 0;
}
