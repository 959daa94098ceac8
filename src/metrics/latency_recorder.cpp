#include "metrics/latency_recorder.hpp"

namespace hotc::metrics {
namespace {

LatencySummary summarize(const std::vector<LatencyPoint>& points) {
  LatencySummary s;
  if (points.empty()) return s;
  RunningStats all;
  RunningStats cold;
  RunningStats warm;
  Percentiles pct;
  for (const auto& p : points) {
    const double ms = to_milliseconds(p.latency);
    all.add(ms);
    pct.add(ms);
    if (p.cold) {
      cold.add(ms);
    } else {
      warm.add(ms);
    }
  }
  s.count = points.size();
  s.cold_count = cold.count();
  s.mean_ms = all.mean();
  s.min_ms = all.min();
  s.max_ms = all.max();
  s.p50_ms = pct.quantile(0.50);
  s.p90_ms = pct.quantile(0.90);
  s.p99_ms = pct.quantile(0.99);
  s.p999_ms = pct.quantile(0.999);
  s.cold_mean_ms = cold.mean();
  s.warm_mean_ms = warm.mean();
  return s;
}

}  // namespace

void LatencyRecorder::add(const LatencyPoint& point) {
  points_.push_back(point);
}

LatencySummary LatencyRecorder::summary() const { return summarize(points_); }

std::vector<double> LatencyRecorder::latencies_ms() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(to_milliseconds(p.latency));
  return out;
}

LatencySummary LatencyRecorder::summary_between(TimePoint from,
                                                TimePoint to) const {
  std::vector<LatencyPoint> filtered;
  for (const auto& p : points_) {
    if (p.arrival >= from && p.arrival < to) filtered.push_back(p);
  }
  return summarize(filtered);
}

void LatencyRecorder::clear() { points_.clear(); }

}  // namespace hotc::metrics
