#include "obs/slo.hpp"

#include <algorithm>
#include <mutex>

namespace hotc::obs {

namespace {

std::string series_labels(const std::string& slo, const std::string& labels) {
  std::string out = "slo=\"" + slo + "\"";
  if (!labels.empty()) out += "," + labels;
  return out;
}

}  // namespace

SloEngine::SloEngine(Registry& registry, std::vector<SloSpec> specs,
                     SloEngineOptions options)
    : registry_(registry), specs_(std::move(specs)), options_(options) {
  collection_ = registry_.collect([this](MetricSink& out) {
    const RankedGuard lock(mu_);
    out.counter("hotc_slo_alerts_total",
                "Burn-rate alerts fired (fast AND slow window over budget)",
                static_cast<double>(alerts_));
    for (const auto& entry : series_) {
      const SloStatus& st = entry.second.last;
      const std::string base = series_labels(st.slo, st.labels);
      out.gauge("hotc_slo_value", "Windowed SLO value (ratio or quantile)",
                st.value, base);
      out.gauge("hotc_slo_burn_rate", "Error-budget burn rate", st.fast_burn,
                base + ",window=\"fast\"");
      out.gauge("hotc_slo_burn_rate", "Error-budget burn rate", st.slow_burn,
                base + ",window=\"slow\"");
      out.gauge("hotc_slo_firing",
                "1 while the burn-rate alert condition holds",
                st.firing ? 1.0 : 0.0, base);
    }
  });
}

void SloEngine::evaluate(std::uint64_t tick) {
  evaluate_snapshot(tick, registry_.snapshot());
}

void SloEngine::evaluate_snapshot(std::uint64_t tick,
                                  const RegistrySnapshot& snap) {
  // Index the cut once; the snapshot is sorted by (name, labels) but a
  // map keeps the pairing logic obvious.
  std::map<std::pair<std::string, std::string>, const MetricSample*> index;
  for (const MetricSample& s : snap) index[{s.name, s.labels}] = &s;

  const RankedGuard lock(mu_);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    if (spec.kind == SloKind::kRatio) {
      for (const MetricSample& s : snap) {
        if (s.name != spec.bad_metric) continue;
        Sample cur;
        cur.bad = s.value;
        const auto tot = index.find({spec.total_metric, s.labels});
        cur.total = tot != index.end() ? tot->second->value : 0.0;
        evaluate_series(tick, spec, s.labels, std::move(cur));
      }
    } else {
      for (const MetricSample& s : snap) {
        if (s.name != spec.histogram || s.kind != MetricKind::kHistogram) {
          continue;
        }
        Sample cur;
        cur.hist = s.histogram;
        evaluate_series(tick, spec, s.labels, std::move(cur));
      }
    }
  }
}

double SloEngine::windowed_value(const SloSpec& spec,
                                 const std::deque<Sample>& ring,
                                 std::size_t window) {
  // Delta between the newest cumulative reading and the one `window`
  // ticks back (clamped to the oldest available — partially-filled
  // windows still burn, just over a shorter horizon).
  const std::size_t span = std::min(window, ring.size() - 1);
  const Sample& now = ring.back();
  const Sample& then = ring[ring.size() - 1 - span];
  if (spec.kind == SloKind::kRatio) {
    const double total = now.total - then.total;
    if (total <= 0.0) return 0.0;  // no events: no budget burned
    return std::max(0.0, now.bad - then.bad) / total;
  }
  // Quantile over the window: subtract cumulative bucket counts, then
  // answer from the delta histogram.
  HistogramSnapshot delta;
  delta.counts.resize(now.hist.counts.size());
  for (std::size_t b = 0; b < delta.counts.size(); ++b) {
    const std::uint64_t before =
        b < then.hist.counts.size() ? then.hist.counts[b] : 0;
    delta.counts[b] = now.hist.counts[b] - before;
  }
  delta.underflow = now.hist.underflow - then.hist.underflow;
  delta.overflow = now.hist.overflow - then.hist.overflow;
  delta.total = now.hist.total - then.hist.total;
  delta.sum = now.hist.sum - then.hist.sum;
  if (delta.total == 0) return 0.0;
  return delta.quantile(spec.quantile);
}

void SloEngine::evaluate_series(std::uint64_t tick, const SloSpec& spec,
                                const std::string& labels, Sample current) {
  const std::size_t spec_idx =
      static_cast<std::size_t>(&spec - specs_.data());
  Series& series = series_[{spec_idx, labels}];
  series.ring.push_back(std::move(current));
  while (series.ring.size() > options_.slow_window + 1) {
    series.ring.pop_front();
  }
  ++series.ticks;

  double value = 0.0;
  double fast = 0.0;
  double slow = 0.0;
  if (series.ring.size() >= 2 && spec.objective > 0.0) {
    value = windowed_value(spec, series.ring, options_.fast_window);
    fast = value / spec.objective;
    slow = windowed_value(spec, series.ring, options_.slow_window) /
           spec.objective;
  }
  const bool was_firing = series.last.firing;
  const bool firing = series.ticks >= options_.min_ticks &&
                      fast >= spec.fire_factor && slow >= spec.fire_factor;

  series.last.slo = spec.name;
  series.last.labels = labels;
  series.last.value = value;
  series.last.fast_burn = fast;
  series.last.slow_burn = slow;
  series.last.firing = firing;
  series.last.ticks = series.ticks;

  // Alert on the firing *edge* only — a sustained violation is one page,
  // not one per tick.
  if (firing && !was_firing) {
    ++alerts_;
    alert_ring_.push_back(SloAlert{tick, spec.name, labels, fast, slow});
    while (alert_ring_.size() > options_.alert_capacity) {
      alert_ring_.pop_front();
    }
  }
}

void SloEngine::raise_anomaly(std::uint64_t tick, const std::string& series,
                              const std::string& labels, double zscore,
                              double delta) {
  const RankedGuard lock(mu_);
  ++alerts_;
  alert_ring_.push_back(
      SloAlert{tick, series, labels, zscore, delta, AlertKind::kAnomaly});
  while (alert_ring_.size() > options_.alert_capacity) {
    alert_ring_.pop_front();
  }
}

std::vector<SloStatus> SloEngine::status() const {
  const RankedGuard lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) out.push_back(series.last);
  return out;
}

std::vector<SloAlert> SloEngine::alerts() const {
  const RankedGuard lock(mu_);
  return {alert_ring_.begin(), alert_ring_.end()};
}

std::uint64_t SloEngine::alerts_fired() const {
  const RankedGuard lock(mu_);
  return alerts_;
}

std::vector<SloSpec> default_slos(double cold_ratio_objective, double p99_ms,
                                  double p999_ms,
                                  double respec_reject_objective,
                                  double trace_drop_objective) {
  std::vector<SloSpec> specs;
  {
    SloSpec s;
    s.name = "cold_start_ratio";
    s.kind = SloKind::kRatio;
    s.bad_metric = "hotc_key_cold_total";
    s.total_metric = "hotc_key_requests_total";
    s.objective = cold_ratio_objective;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "latency_p99";
    s.kind = SloKind::kQuantile;
    s.histogram = "hotc_request_duration_ms";
    s.quantile = 0.99;
    s.objective = p99_ms;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "latency_p999";
    s.kind = SloKind::kQuantile;
    s.histogram = "hotc_request_duration_ms";
    s.quantile = 0.999;
    s.objective = p999_ms;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "respec_reject_ratio";
    s.kind = SloKind::kRatio;
    s.bad_metric = "hotc_share_respec_rejected_total";
    s.total_metric = "hotc_share_donor_lookups_total";
    s.objective = respec_reject_objective;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "trace_drop_ratio";
    s.kind = SloKind::kRatio;
    s.bad_metric = "hotc_trace_dropped_total";
    s.total_metric = "hotc_trace_recorded_total";
    s.objective = trace_drop_objective;
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace hotc::obs
