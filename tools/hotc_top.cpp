// hotc_top — per-key health console for the self-diagnosis layer.
//
// Drives one simulated scenario (steady | step) with the full diagnosis
// stack attached, then renders everything an operator would ask of a
// `top` for container runtimes, all derived from ONE consistent cut:
// a single Registry snapshot, one decision-journal tail and one SLO
// status read, taken together after the run — the table, the SLO panel
// and OBS_health.json can never disagree with each other.
//
//   - per-key health table: requests, cold starts, cold ratio, last
//     demand / forecast / prewarms / retires from the newest journal
//     records, drift-restart and mute flags;
//   - history panel: per-key cold-start-ratio sparklines and the p99
//     latency sparkline over the last ticks, read back from the
//     TimeSeriesStore the controller fed from the same per-tick cut the
//     SLO engine evaluated (doc["history"]);
//   - SLO panel: windowed value, fast/slow burn rates, FIRING marker;
//   - snapshot-tier panel: checkpoint-store bytes vs budget, per-tenant
//     occupancy, demotion / restore / eviction counts and the restore
//     hit rate, read from the same registry cut (doc["snapshot"]);
//   - p99 cross-link: the end-to-end latency histogram's p99 bucket is
//     resolved to its exemplar trace id, and that id to its spans in the
//     flight recorder — which are dumped to OBS_spans.jsonl, so the JSON
//     cross-link is followable with grep.
//
// Artifacts: OBS_health.json (+ OBS_spans.jsonl) in the bench output dir
// (repo root, HOTC_BENCH_DIR overrides).  CI gates on OBS_health.json
// being well-formed with zero firing alerts for the steady scenario.
//
// Usage: hotc_top [steady|step]       (default: steady)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/json.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "snapshot/checkpoint_store.hpp"
#include "spec/runtime_key.hpp"

using namespace hotc;

namespace {

/// `_.-~=+*#` ramp scaled to the series max; empty history renders "-".
std::string sparkline(const std::vector<double>& values) {
  static const char kRamp[] = "_.-~=+*#";
  if (values.empty()) return "-";
  double max = 0.0;
  for (const double v : values) max = std::max(max, v);
  std::string out;
  for (const double v : values) {
    const std::size_t idx =
        max > 0.0 ? static_cast<std::size_t>(v / max * 7.0 + 0.5) : 0;
    out += kRamp[std::min<std::size_t>(idx, 7)];
  }
  return out;
}

/// Per-tick cold ratio: elementwise cold-delta / request-delta, joined on
/// tick (ticks where the key saw no requests read 0).
std::vector<double> cold_ratio_series(
    const std::vector<obs::TsdbPoint>& cold,
    const std::vector<obs::TsdbPoint>& req) {
  std::map<std::uint64_t, double> cold_by_tick;
  for (const auto& p : cold) cold_by_tick[p.tick] = p.value;
  std::vector<double> out;
  out.reserve(req.size());
  for (const auto& p : req) {
    const auto it = cold_by_tick.find(p.tick);
    const double c = it != cold_by_tick.end() ? it->second : 0.0;
    out.push_back(p.value > 0.0 ? c / p.value : 0.0);
  }
  return out;
}

std::vector<double> tail_values(const std::vector<obs::TsdbPoint>& pts,
                                std::size_t n) {
  std::vector<double> out;
  const std::size_t from = pts.size() > n ? pts.size() - n : 0;
  for (std::size_t i = from; i < pts.size(); ++i)
    out.push_back(pts[i].value);
  return out;
}

/// Per-key row assembled from the consistent cut: counters come from the
/// registry snapshot (label key="<decimal interned id>"), the latest
/// decision from the journal tail (joined on DecisionRecord::key_id).
struct KeyHealth {
  double requests = 0.0;
  double cold = 0.0;
  bool have_decision = false;
  obs::DecisionRecord last;  // newest non-summary record for this key
};

}  // namespace

int main(int argc, char** argv) {
  const std::string scenario = argc > 1 ? argv[1] : "steady";
  if (scenario != "steady" && scenario != "step") {
    std::cerr << "usage: hotc_top [steady|step]\n";
    return 2;
  }

  // ---- drive the scenario ---------------------------------------------------
  const Duration period = seconds(30);
  const auto mix = workload::ConfigMix::sibling_functions(4, 2);
  // Round-robin over the mix so every sibling function gets a row in the
  // health table.
  const auto arrivals =
      scenario == "step"
          ? workload::square_wave(30, 4, 30, 16, period, mix.size())
          : workload::square_wave(40, 6, 0, 0, period, mix.size());

  obs::Registry registry;
  obs::Tracer tracer(8192, &registry);
  obs::SloEngine slo(registry, obs::default_slos());
  obs::DecisionJournal journal(4096);
  obs::TimeSeriesStore tsdb(registry, obs::TsdbOptions{}, &slo);

  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.registry = &registry;
  opt.tracer = &tracer;
  opt.hotc.journal = &journal;
  opt.hotc.slo = &slo;
  opt.hotc.tsdb = &tsdb;
  opt.hotc.enable_drift_detection = true;
  // Tiered warm state on: adaptive-loop retirements park in the snapshot
  // store, so the tier panel below has real traffic to show.  Restores
  // still count as cold starts (they walk the cold path, just cheaper),
  // so the SLO panel's cold-ratio reading is unchanged.
  opt.hotc.tiering.enabled = true;
  faas::FaasPlatform platform(opt);

  // Continuous profiler across the run: the contention and queue-delay
  // panel below renders from the same cut as everything else.  (The
  // simulated scenario is single-threaded virtual time, so zero recorded
  // contention is itself the expected healthy reading here; the real
  // backend exercises the collectors in bench_prof / test_prof.)
  obs::Profiler::reset();
  obs::Profiler profiler;
  profiler.start();
  platform.run(arrivals, mix);
  profiler.stop();

  // ---- ONE consistent cut ---------------------------------------------------
  const obs::RegistrySnapshot snap = registry.snapshot();
  const std::vector<obs::DecisionRecord> tail = journal.tail(512);
  const std::vector<obs::SloStatus> statuses = slo.status();
  const std::vector<obs::SloAlert> alerts = slo.alerts();
  const std::vector<obs::SpanRecord> spans = tracer.recorder().snapshot();
  const obs::ProfSnapshot prof = profiler.snapshot();
  const std::uint64_t ticks = platform.hotc_controller()->adaptive_ticks();
  const snapshot::CheckpointStore* store =
      platform.hotc_controller()->checkpoint_store();
  const std::vector<snapshot::CheckpointStore::TenantOccupancy> tenants =
      store != nullptr
          ? store->tenant_occupancy()
          : std::vector<snapshot::CheckpointStore::TenantOccupancy>{};

  // ---- per-key health -------------------------------------------------------
  std::map<std::string, KeyHealth> keys;  // decimal key id -> health
  for (const auto& s : snap) {
    if (s.name != "hotc_key_requests_total" &&
        s.name != "hotc_key_cold_total") {
      continue;
    }
    // label is exactly key="<decimal id>"
    const auto q1 = s.labels.find('"');
    const auto q2 = s.labels.rfind('"');
    if (q1 == std::string::npos || q2 <= q1) continue;
    auto& row = keys[s.labels.substr(q1 + 1, q2 - q1 - 1)];
    (s.name == "hotc_key_cold_total" ? row.cold : row.requests) = s.value;
  }
  for (const auto& rec : tail) {  // oldest first; newest record wins
    if ((rec.flags & obs::kJournalSummary) != 0) continue;
    auto it = keys.find(std::to_string(rec.key_id));
    if (it == keys.end()) continue;
    it->second.last = rec;
    it->second.have_decision = true;
  }

  Table key_table({"key", "req", "cold", "cold%", "demand", "forecast",
                   "have", "prewarm", "retire", "flags"});
  for (const auto& [id, row] : keys) {
    std::string flags;
    if (row.have_decision) {
      if ((row.last.flags & obs::kJournalDriftRestart) != 0)
        flags += "DRIFT ";
      if ((row.last.flags & obs::kJournalDonationMuted) != 0)
        flags += "muted ";
      if ((row.last.flags & obs::kJournalDonorNominated) != 0)
        flags += "donor ";
    }
    key_table.add_row(
        {id, Table::num(row.requests, 0),
         Table::num(row.cold, 0),
         row.requests > 0
             ? Table::num(row.cold / row.requests * 100.0, 1)
             : "-",
         row.have_decision ? Table::num(row.last.demand, 1) : "-",
         row.have_decision ? Table::num(row.last.forecast, 1) : "-",
         row.have_decision ? std::to_string(row.last.have) : "-",
         row.have_decision ? std::to_string(row.last.prewarms) : "-",
         row.have_decision ? std::to_string(row.last.retires) : "-",
         flags.empty() ? "-" : flags});
  }
  std::cout << banner("hotc_top — " + scenario + " scenario, tick " +
                      std::to_string(ticks))
            << key_table.to_string() << "\n";

  // ---- SLO panel ------------------------------------------------------------
  Table slo_table(
      {"slo", "labels", "value", "fast burn", "slow burn", "state"});
  std::size_t firing = 0;
  for (const auto& s : statuses) {
    if (s.firing) ++firing;
    slo_table.add_row({s.slo, s.labels.empty() ? "-" : s.labels,
                       Table::num(s.value, 4), Table::num(s.fast_burn, 2),
                       Table::num(s.slow_burn, 2),
                       s.firing ? "FIRING" : "ok"});
  }
  std::cout << slo_table.to_string() << firing << " firing, "
            << alerts.size() << " alerts in ring\n\n";

  // ---- history panel (TimeSeriesStore read-back) ----------------------------
  // The store was fed once per adaptive tick from the same Registry cut
  // the SLO engine evaluated, so these sparklines are the per-tick
  // history of exactly the numbers in the tables above.
  constexpr std::size_t kSparkTicks = 16;
  Table hist_table({"key", "cold% sparkline (last " +
                               std::to_string(kSparkTicks) + " ticks)",
                    "last"});
  struct KeyHistory {
    std::string id;
    std::vector<double> ratio;
  };
  std::vector<KeyHistory> histories;
  for (const auto& [id, row] : keys) {
    const std::string labels = "key=\"" + id + "\"";
    KeyHistory h;
    h.id = id;
    h.ratio = cold_ratio_series(
        tsdb.rate("hotc_key_cold_total", labels),
        tsdb.rate("hotc_key_requests_total", labels));
    if (h.ratio.size() > kSparkTicks)
      h.ratio.erase(h.ratio.begin(),
                    h.ratio.end() - static_cast<std::ptrdiff_t>(kSparkTicks));
    hist_table.add_row(
        {id, sparkline(h.ratio),
         h.ratio.empty() ? "-"
                         : Table::num(h.ratio.back() * 100.0, 1) + "%"});
    histories.push_back(std::move(h));
  }
  const std::vector<double> p99_hist = tail_values(
      tsdb.quantile_series("hotc_request_duration_ms", "", 0.99,
                           kSparkTicks),
      kSparkTicks);
  const std::vector<obs::AnomalyEvent> anomalies = tsdb.anomalies();
  std::cout << hist_table.to_string() << "p99 latency  "
            << sparkline(p99_hist)
            << (p99_hist.empty()
                    ? ""
                    : "  (last " + Table::num(p99_hist.back(), 1) + "ms)")
            << "\n"
            << tsdb.frames() << " frames retained, " << anomalies.size()
            << " anomalies flagged\n\n";

  // ---- contention / queue-delay panel ---------------------------------------
  Table lock_table({"lock site", "band", "stage", "waits", "wait ms"});
  for (std::size_t i = 0; i < prof.contention.size() && i < 8; ++i) {
    const auto& c = prof.contention[i];
    lock_table.add_row(
        {c.site, std::to_string(c.band),
         c.stage == obs::kStageIdle
             ? "idle"
             : obs::to_string(static_cast<obs::Stage>(c.stage)),
         std::to_string(c.count),
         Table::num(static_cast<double>(c.wait_ns) / 1e6, 3)});
  }
  if (prof.contention.empty()) {
    lock_table.add_row({"(no contention recorded)", "-", "-", "0", "0"});
  }
  Table task_table({"task tag", "runs", "queue ms", "run ms", "max queue ms"});
  for (const auto& t : prof.tasks) {
    task_table.add_row(
        {t.tag, std::to_string(t.count),
         Table::num(static_cast<double>(t.queue_ns) / 1e6, 3),
         Table::num(static_cast<double>(t.run_ns) / 1e6, 3),
         Table::num(static_cast<double>(t.queue_max_ns) / 1e6, 3)});
  }
  if (prof.tasks.empty()) {
    task_table.add_row({"(no tasks profiled)", "0", "0", "0", "0"});
  }
  std::cout << lock_table.to_string() << task_table.to_string()
            << "seqlock retries " << prof.seqlock_retries
            << ", untracked waits " << prof.untracked_waits
            << ", sampler polls " << prof.sampler_polls << "\n\n";

  // ---- snapshot-tier panel --------------------------------------------------
  // Counters come from the same registry cut (the store publishes
  // hotc_snapshot_*); per-tenant occupancy is the store's own read, taken
  // in the same quiet post-run state.
  double snap_bytes = 0.0;
  double snap_entries = 0.0;
  double snap_demotes = 0.0;
  double snap_restores = 0.0;
  double snap_evictions = 0.0;
  double snap_rejected = 0.0;
  for (const auto& s : snap) {
    if (s.name == "hotc_snapshot_store_bytes") snap_bytes = s.value;
    if (s.name == "hotc_snapshot_store_entries") snap_entries = s.value;
    if (s.name == "hotc_snapshot_demotes_total") snap_demotes = s.value;
    if (s.name == "hotc_snapshot_restores_total") snap_restores = s.value;
    if (s.name == "hotc_snapshot_evictions_total") snap_evictions = s.value;
    if (s.name == "hotc_snapshot_rejected_total") snap_rejected = s.value;
  }
  // Share of demotions whose disk parking paid off as a restore.
  const double restore_hit_rate =
      snap_demotes > 0.0 ? snap_restores / snap_demotes : 0.0;
  const double budget_mib =
      store != nullptr
          ? static_cast<double>(store->capacity_bytes()) / (1024.0 * 1024.0)
          : 0.0;
  Table tier_table({"store MiB", "budget MiB", "entries", "demotes",
                    "restores", "evictions", "rejected", "restore hit%"});
  tier_table.add_row({Table::num(snap_bytes / (1024.0 * 1024.0), 2),
                      Table::num(budget_mib, 0),
                      Table::num(snap_entries, 0),
                      Table::num(snap_demotes, 0),
                      Table::num(snap_restores, 0),
                      Table::num(snap_evictions, 0),
                      Table::num(snap_rejected, 0),
                      Table::num(restore_hit_rate * 100.0, 1)});
  Table tenant_table({"tenant", "bytes", "entries"});
  for (const auto& t : tenants) {
    tenant_table.add_row({std::to_string(t.tenant),
                          std::to_string(t.bytes),
                          std::to_string(t.entries)});
  }
  if (tenants.empty()) {
    tenant_table.add_row({"(store empty)", "0", "0"});
  }
  std::cout << tier_table.to_string() << tenant_table.to_string() << "\n";

  // ---- p99 exemplar cross-link ----------------------------------------------
  // Resolve the end-to-end latency histogram's p99 bucket to its exemplar
  // trace id, then that id to its spans in the same cut's span dump.
  double p99_ms = 0.0;
  std::uint64_t exemplar = 0;
  int p99_bucket = -1;
  std::size_t spans_matched = 0;
  for (const auto& s : snap) {
    if (s.name != "hotc_request_duration_ms" ||
        s.kind != obs::MetricKind::kHistogram) {
      continue;
    }
    p99_ms = s.histogram.quantile(0.99);
    p99_bucket = s.histogram.quantile_bucket(0.99);
    if (p99_bucket >= 0 && !s.histogram.exemplars.empty()) {
      exemplar =
          s.histogram.exemplars[static_cast<std::size_t>(p99_bucket)];
    }
  }
  for (const auto& sp : spans) {
    if (exemplar != 0 && sp.trace_id == exemplar) ++spans_matched;
  }
  std::cout << "p99 request latency " << Table::num(p99_ms, 1)
            << "ms (bucket " << p99_bucket << "), exemplar trace "
            << exemplar << " -> " << spans_matched
            << " spans in OBS_spans.jsonl\n";

  // ---- artifacts ------------------------------------------------------------
  const std::string dir = hotc::bench::output_dir();
  const bool wrote_spans = hotc::bench::write_file(
      dir + "/OBS_spans.jsonl", obs::spans_to_jsonl(spans));

  JsonObject doc;
  doc["tool"] = Json(std::string("hotc_top"));
  doc["scenario"] = Json(scenario);
  doc["tick"] = Json(static_cast<std::int64_t>(ticks));
  doc["provenance"] = Json(hotc::bench::provenance());

  JsonArray key_rows;
  for (const auto& [id, row] : keys) {
    JsonObject k;
    k["key"] = Json(id);
    k["requests"] = Json(row.requests);
    k["cold"] = Json(row.cold);
    k["cold_ratio"] =
        Json(row.requests > 0 ? row.cold / row.requests : 0.0);
    if (row.have_decision) {
      k["demand"] = Json(row.last.demand);
      k["forecast"] = Json(row.last.forecast);
      k["have"] = Json(static_cast<std::int64_t>(row.last.have));
      k["prewarms"] = Json(static_cast<std::int64_t>(row.last.prewarms));
      k["retires"] = Json(static_cast<std::int64_t>(row.last.retires));
      k["flags"] = Json(static_cast<std::int64_t>(row.last.flags));
    }
    key_rows.push_back(Json(std::move(k)));
  }
  doc["keys"] = Json(std::move(key_rows));

  JsonArray slo_rows;
  for (const auto& s : statuses) {
    JsonObject j;
    j["slo"] = Json(s.slo);
    j["labels"] = Json(s.labels);
    j["value"] = Json(s.value);
    j["fast_burn"] = Json(s.fast_burn);
    j["slow_burn"] = Json(s.slow_burn);
    j["firing"] = Json(s.firing);
    j["ticks"] = Json(static_cast<std::int64_t>(s.ticks));
    slo_rows.push_back(Json(std::move(j)));
  }
  doc["slo"] = Json(std::move(slo_rows));
  doc["firing"] = Json(static_cast<std::int64_t>(firing));

  JsonArray alert_rows;
  for (const auto& a : alerts) {
    JsonObject j;
    j["tick"] = Json(static_cast<std::int64_t>(a.tick));
    j["slo"] = Json(a.slo);
    j["labels"] = Json(a.labels);
    j["fast_burn"] = Json(a.fast_burn);
    j["slow_burn"] = Json(a.slow_burn);
    alert_rows.push_back(Json(std::move(j)));
  }
  doc["alerts"] = Json(std::move(alert_rows));

  JsonObject p99;
  p99["value_ms"] = Json(p99_ms);
  p99["bucket"] = Json(p99_bucket);
  p99["exemplar_trace_id"] =
      Json(std::to_string(exemplar));  // string: ids exceed 2^53
  p99["spans_matched"] = Json(static_cast<std::int64_t>(spans_matched));
  p99["spans_file"] = Json(std::string("OBS_spans.jsonl"));
  doc["p99_exemplar"] = Json(std::move(p99));

  JsonObject pr;
  JsonArray lock_rows;
  for (const auto& c : prof.contention) {
    JsonObject j;
    j["site"] = Json(std::string(c.site));
    j["band"] = Json(static_cast<std::int64_t>(c.band));
    j["stage"] = Json(std::string(
        c.stage == obs::kStageIdle
            ? "idle"
            : obs::to_string(static_cast<obs::Stage>(c.stage))));
    j["waits"] = Json(static_cast<std::int64_t>(c.count));
    j["wait_ns"] = Json(static_cast<std::int64_t>(c.wait_ns));
    lock_rows.push_back(Json(std::move(j)));
  }
  pr["contention"] = Json(std::move(lock_rows));
  JsonArray task_rows;
  for (const auto& t : prof.tasks) {
    JsonObject j;
    j["tag"] = Json(std::string(t.tag));
    j["runs"] = Json(static_cast<std::int64_t>(t.count));
    j["queue_ns"] = Json(static_cast<std::int64_t>(t.queue_ns));
    j["run_ns"] = Json(static_cast<std::int64_t>(t.run_ns));
    j["queue_max_ns"] = Json(static_cast<std::int64_t>(t.queue_max_ns));
    task_rows.push_back(Json(std::move(j)));
  }
  pr["tasks"] = Json(std::move(task_rows));
  pr["seqlock_retries"] =
      Json(static_cast<std::int64_t>(prof.seqlock_retries));
  pr["untracked_waits"] =
      Json(static_cast<std::int64_t>(prof.untracked_waits));
  pr["sampler_polls"] = Json(static_cast<std::int64_t>(prof.sampler_polls));
  doc["prof"] = Json(std::move(pr));

  JsonObject tier;
  tier["store_bytes"] = Json(snap_bytes);
  tier["budget_bytes"] =
      Json(store != nullptr
               ? static_cast<std::int64_t>(store->capacity_bytes())
               : std::int64_t{0});
  tier["entries"] = Json(snap_entries);
  tier["demotes"] = Json(snap_demotes);
  tier["restores"] = Json(snap_restores);
  tier["evictions"] = Json(snap_evictions);
  tier["rejected"] = Json(snap_rejected);
  tier["restore_hit_rate"] = Json(restore_hit_rate);
  JsonArray tenant_rows;
  for (const auto& t : tenants) {
    JsonObject j;
    j["tenant"] = Json(std::to_string(t.tenant));  // ids exceed 2^53
    j["bytes"] = Json(static_cast<std::int64_t>(t.bytes));
    j["entries"] = Json(static_cast<std::int64_t>(t.entries));
    tenant_rows.push_back(Json(std::move(j)));
  }
  tier["tenants"] = Json(std::move(tenant_rows));
  doc["snapshot"] = Json(std::move(tier));

  JsonObject hist;
  hist["frames_retained"] = Json(static_cast<std::int64_t>(tsdb.frames()));
  hist["samples"] = Json(static_cast<std::int64_t>(tsdb.samples()));
  hist["spark_ticks"] = Json(static_cast<std::int64_t>(kSparkTicks));
  JsonArray hist_keys;
  for (const auto& h : histories) {
    JsonObject j;
    j["key"] = Json(h.id);
    JsonArray ratios;
    for (const double v : h.ratio) ratios.push_back(Json(v));
    j["cold_ratio"] = Json(std::move(ratios));
    j["sparkline"] = Json(sparkline(h.ratio));
    hist_keys.push_back(Json(std::move(j)));
  }
  hist["keys"] = Json(std::move(hist_keys));
  JsonObject hist_p99;
  JsonArray p99_values;
  for (const double v : p99_hist) p99_values.push_back(Json(v));
  hist_p99["values_ms"] = Json(std::move(p99_values));
  hist_p99["sparkline"] = Json(sparkline(p99_hist));
  hist["p99"] = Json(std::move(hist_p99));
  JsonArray anomaly_rows;
  for (const auto& a : anomalies) {
    JsonObject j;
    j["tick"] = Json(static_cast<std::int64_t>(a.tick));
    j["series"] = Json(a.series);
    j["labels"] = Json(a.labels);
    j["zscore"] = Json(a.zscore);
    anomaly_rows.push_back(Json(std::move(j)));
  }
  hist["anomalies"] = Json(std::move(anomaly_rows));
  doc["history"] = Json(std::move(hist));

  JsonObject jj;
  jj["records"] = Json(static_cast<std::int64_t>(tail.size()));
  jj["recorded_total"] =
      Json(static_cast<std::int64_t>(journal.recorded()));
  jj["dropped"] = Json(static_cast<std::int64_t>(journal.dropped()));
  jj["rejected"] = Json(static_cast<std::int64_t>(journal.rejected()));
  doc["journal"] = Json(std::move(jj));

  const std::string path = dir + "/OBS_health.json";
  if (!hotc::bench::write_file(path, Json(std::move(doc)).dump(2) + "\n") ||
      !wrote_spans) {
    std::cerr << "failed to write " << path << " / OBS_spans.jsonl\n";
    return 1;
  }
  std::cout << "wrote " << path << " and " << dir << "/OBS_spans.jsonl\n";
  return 0;
}
