// Request latency collection and summaries shared by every experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/time.hpp"

namespace hotc::metrics {

struct LatencyPoint {
  std::uint64_t request_id = 0;
  TimePoint arrival = kZeroDuration;
  Duration latency = kZeroDuration;
  bool cold = false;           // paid a container cold start
  std::size_t config_index = 0;
};

struct LatencySummary {
  std::size_t count = 0;
  std::size_t cold_count = 0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double cold_mean_ms = 0.0;
  double warm_mean_ms = 0.0;

  [[nodiscard]] double cold_fraction() const {
    return count ? static_cast<double>(cold_count) /
                       static_cast<double>(count)
                 : 0.0;
  }
};

class LatencyRecorder {
 public:
  LatencyRecorder() = default;

  void add(const LatencyPoint& point);
  /// Pre-size for n points (a run knows its request count up front).
  void reserve(std::size_t n) { points_.reserve(n); }
  [[nodiscard]] const std::vector<LatencyPoint>& points() const {
    return points_;
  }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  [[nodiscard]] LatencySummary summary() const;

  /// Latencies (ms) in arrival order — the per-request series plotted in
  /// Figs. 9 and 12-14.
  [[nodiscard]] std::vector<double> latencies_ms() const;

  /// Summary restricted to arrivals in [from, to).
  [[nodiscard]] LatencySummary summary_between(TimePoint from,
                                               TimePoint to) const;

  void clear();

 private:
  std::vector<LatencyPoint> points_;
};

}  // namespace hotc::metrics
