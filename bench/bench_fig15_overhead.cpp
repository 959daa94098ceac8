// Figure 15 — HotC overhead analysis.
//
// (a) CPU and memory cost of keeping N live containers: <1 % CPU at ten
//     containers, ~0.7 MB memory each.
// (b) resource timeline of a heavy containerized application (Cassandra):
//     application execution dwarfs the container itself, and the OS
//     reclaims memory quickly once the workload stops.
// (c) cost of our own observability layer: pool acquire/release micro-ops
//     with the tracer disabled vs enabled (span into the flight-recorder
//     ring + stage histogram).  The paper bounds HotC's middleware
//     overhead; this bounds the reproduction's instrumentation the same
//     way.  Gate: <= 5 % on the acquire/release pair.
// (d) one small HotC platform run with a registry + tracer attached,
//     dumped in all three export formats (Prometheus text, JSONL spans,
//     chrome://tracing JSON) from the same registry/recorder.
//
// Machine-readable results land in BENCH_overhead.json at the repo root
// (HOTC_BENCH_DIR overrides); HOTC_SMOKE=1 shrinks iteration counts.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/json.hpp"
#include "engine/engine.hpp"
#include "engine/monitor.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pool/sharded_pool.hpp"
#include "pool_pairs.hpp"
#include "spec/runtime_key.hpp"

using namespace hotc;

namespace {

// --- (c) tracing overhead ---------------------------------------------------

/// The pool pair plus exactly the span the controller emits for a pool
/// lookup.  The tracer's enable switch decides whether the span call is
/// one relaxed load (disabled) or a full ring publish + histogram observe
/// (enabled).
double time_pairs_ns(pool::ShardedRuntimePool& pool, obs::Tracer& tracer,
                     const std::vector<spec::RuntimeKey>& keys, int pairs) {
  return bench::time_pairs_ns(
      pool, keys, pairs,
      [&](int i, const spec::RuntimeKey& key, TimePoint now, bool hit) {
        tracer.span(static_cast<std::uint64_t>(i) + 1,
                    obs::Stage::kPoolLookup, now, kZeroDuration, key.hash(),
                    static_cast<std::uint16_t>(pool.shard_index(key)),
                    hit ? obs::kSpanHit : std::uint8_t{0});
      });
}

struct TracingOverhead {
  double disabled_ns = 0.0;
  double enabled_ns = 0.0;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;

  [[nodiscard]] double overhead_pct() const {
    return disabled_ns > 0.0
               ? (enabled_ns - disabled_ns) / disabled_ns * 100.0
               : 0.0;
  }
};

TracingOverhead measure_tracing_overhead(int pairs, int reps) {
  obs::Registry registry;
  obs::Tracer tracer(4096, &registry);
  pool::ShardedRuntimePool pool(pool::PoolLimits{}, 16);

  const auto keys = bench::pair_keys();
  bench::prepopulate(pool, keys);

  // Interleaved best-of-N: the minimum is the least-noisy estimate of the
  // true per-pair cost (on a shared vCPU, noise is one-sided steal time),
  // and alternating the variants keeps cache / clock drift from biasing
  // one side.  Many short reps beat few long ones here: each variant only
  // needs one rep that lands in a steal-free window.
  TracingOverhead out;
  out.disabled_ns = std::numeric_limits<double>::infinity();
  out.enabled_ns = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    tracer.set_enabled(false);
    out.disabled_ns =
        std::min(out.disabled_ns, time_pairs_ns(pool, tracer, keys, pairs));
    tracer.set_enabled(true);
    out.enabled_ns =
        std::min(out.enabled_ns, time_pairs_ns(pool, tracer, keys, pairs));
  }
  out.spans = tracer.recorder().recorded();
  out.dropped = tracer.recorder().dropped();
  return out;
}

}  // namespace

int main() {
  const bool smoke = hotc::bench::smoke_mode();
  bench::print_header(
      "Figure 15: overhead of live containers",
      "(a) resource usage vs pool size; (b) Cassandra lifecycle timeline;\n"
      "(c) tracing overhead on the pool hot path; (d) obs export formats.");

  // ---- (a) N idle containers -----------------------------------------------
  Table fig15a({"live containers", "cpu usage", "memory above baseline",
                "per container"});
  JsonArray idle_rows;
  for (const int n : {0, 1, 5, 10, 50, 100, 500}) {
    sim::Simulator sim;
    engine::ContainerEngine engine(sim, engine::HostProfile::server());
    spec::RunSpec s;
    s.image = spec::ImageRef{"alpine", "3.12"};
    s.network = spec::NetworkMode::kNone;
    engine.preload_image(s.image);
    const Bytes baseline = engine.memory_used();
    for (int i = 0; i < n; ++i) {
      engine.launch(s, [](Result<engine::LaunchReport>) {});
    }
    sim.run();
    const Bytes delta = engine.memory_used() - baseline;
    fig15a.add_row(
        {std::to_string(n), bench::pct(engine.cpu_utilization()),
         format_bytes(delta),
         n > 0 ? format_bytes(delta / n) : "-"});
    JsonObject row;
    row["live_containers"] = Json(n);
    row["cpu_utilization"] = Json(engine.cpu_utilization());
    row["memory_bytes"] = Json(static_cast<std::int64_t>(delta));
    idle_rows.push_back(Json(std::move(row)));
  }
  std::cout << "(a) idle-pool resource footprint\n" << fig15a.to_string();
  std::cout << "(paper: ten live containers cost <1% CPU and ~0.7MB each)\n\n";

  // ---- (b) Cassandra lifecycle ----------------------------------------------
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  spec::RunSpec s;
  s.image = spec::ImageRef{"cassandra", "3.11"};
  s.network = spec::NetworkMode::kBridge;
  engine.preload_image(s.image);

  engine::ResourceMonitor monitor(sim, engine, seconds(1));
  monitor.start();
  // Launch at ~6 s, serve until the app model completes (~13-15 s), then
  // keep the container live — as the paper's Fig. 15(b) does.
  sim.at(seconds(6), [&]() {
    engine.launch(s, [&](Result<engine::LaunchReport> r) {
      engine.exec(r.value().container, engine::apps::cassandra(),
                  [](Result<engine::ExecReport>) {});
    });
  });
  sim.at(seconds(30), [&]() { monitor.stop(); });
  sim.run();

  Table fig15b({"t", "cpu", "memory", "live containers"});
  for (const auto& sample : monitor.cpu().samples()) {
    const std::size_t i = &sample - monitor.cpu().samples().data();
    if (i % 2 != 0) continue;
    fig15b.add_row(
        {format_duration(sample.t), bench::pct(sample.value),
         Table::num(monitor.memory_mib()[i].value, 0) + "MiB",
         Table::num(monitor.live_containers()[i].value, 0)});
  }
  std::cout << "(b) Cassandra-in-a-container lifecycle (launch at 6s)\n"
            << fig15b.to_string();
  std::cout << "(paper: the application, not the container, owns the\n"
               " resource cost; memory is reclaimed quickly after the\n"
               " workload stops while the container stays live)\n\n";

  // ---- (c) tracing overhead on the pool hot path ----------------------------
  const int pairs = smoke ? 20'000 : 200'000;
  const int reps = smoke ? 3 : 15;
  const TracingOverhead tr = measure_tracing_overhead(pairs, reps);
  std::cout << "(c) tracing overhead, pool acquire/release micro-ops ("
            << pairs << " pairs, best of " << reps << ")\n"
            << "    tracer disabled: " << Table::num(tr.disabled_ns, 1)
            << " ns/pair\n"
            << "    tracer enabled:  " << Table::num(tr.enabled_ns, 1)
            << " ns/pair  (ring publish + stage histogram)\n"
            << "    overhead: " << Table::num(tr.overhead_pct(), 2)
            << "%  (gate: <= 5%)\n\n";

  // ---- (d) all three export formats from one registry/recorder --------------
  obs::Registry registry;
  obs::Tracer tracer(8192, &registry);
  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.registry = &registry;
  opt.tracer = &tracer;
  faas::FaasPlatform platform(opt);
  const auto mix = workload::ConfigMix::qr_web_service(1);
  const auto arrivals =
      workload::linear_increasing(2, 2, smoke ? 4 : 8, seconds(30));
  platform.run(arrivals, mix);

  const std::string dir = hotc::bench::output_dir();
  const std::string prom = obs::to_prometheus(registry, "instance=\"hotc\"");
  const auto spans = tracer.recorder().snapshot();
  const bool wrote_prom =
      hotc::bench::write_file(dir + "/OBS_metrics.prom", prom);
  const bool wrote_jsonl = hotc::bench::write_file(
      dir + "/OBS_spans.jsonl", obs::spans_to_jsonl(spans));
  const bool wrote_chrome = hotc::bench::write_file(
      dir + "/OBS_trace.json", obs::spans_to_chrome_trace(spans));
  std::cout << "(d) exports from one registry/recorder (" << spans.size()
            << " spans in the flight recorder)\n"
            << "    " << dir << "/OBS_metrics.prom  (Prometheus text)\n"
            << "    " << dir << "/OBS_spans.jsonl   (JSONL span dump)\n"
            << "    " << dir
            << "/OBS_trace.json   (chrome://tracing / Perfetto)\n";

  // ---- BENCH_overhead.json --------------------------------------------------
  JsonObject doc;
  doc["bench"] = Json(std::string("fig15_overhead"));
  doc["smoke"] = Json(smoke);
  doc["provenance"] = Json(hotc::bench::provenance());
  JsonObject tracing;
  tracing["pairs"] = Json(pairs);
  tracing["reps"] = Json(reps);
  tracing["disabled_ns_per_pair"] = Json(tr.disabled_ns);
  tracing["enabled_ns_per_pair"] = Json(tr.enabled_ns);
  tracing["overhead_pct"] = Json(tr.overhead_pct());
  tracing["gate_pct"] = Json(5.0);
  tracing["gate_passed"] = Json(tr.overhead_pct() <= 5.0);
  tracing["spans_recorded"] = Json(static_cast<std::int64_t>(tr.spans));
  tracing["spans_dropped"] = Json(static_cast<std::int64_t>(tr.dropped));
  doc["tracing"] = Json(std::move(tracing));
  doc["idle_containers"] = Json(std::move(idle_rows));
  JsonObject exports;
  exports["prometheus"] = Json(wrote_prom ? "OBS_metrics.prom" : "FAILED");
  exports["jsonl_spans"] = Json(wrote_jsonl ? "OBS_spans.jsonl" : "FAILED");
  exports["chrome_trace"] = Json(wrote_chrome ? "OBS_trace.json" : "FAILED");
  exports["span_count"] = Json(static_cast<std::int64_t>(spans.size()));
  doc["exports"] = Json(std::move(exports));
  const std::string path = dir + "/BENCH_overhead.json";
  if (!hotc::bench::write_file(path, Json(std::move(doc)).dump(2) + "\n")) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";

  if (!wrote_prom || !wrote_jsonl || !wrote_chrome) {
    std::cerr << "export dump FAILED\n";
    return 1;
  }
  if (tr.overhead_pct() > 5.0) {
    std::cerr << "tracing overhead gate FAILED ("
              << Table::num(tr.overhead_pct(), 2) << "% > 5%)\n";
    return 1;
  }
  return 0;
}
