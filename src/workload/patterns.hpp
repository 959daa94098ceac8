// Request arrival patterns for the Section V-D experiments.
//
// Each generator returns a time-ordered arrival list; `config_index`
// selects which runtime configuration (and application) the request wants,
// letting the parallel experiment give every client thread its own
// configuration as the paper does.
#pragma once

#include <cstddef>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"

namespace hotc::workload {

struct Arrival {
  TimePoint at;
  std::size_t config_index = 0;

  bool operator<(const Arrival& other) const { return at < other.at; }
};

using ArrivalList = std::vector<Arrival>;

/// Single client thread, one request every `period` (Fig. 12(a): 30 s).
ArrivalList serial(std::size_t count, Duration period,
                   std::size_t config_index = 0);

/// `threads` clients, each with its own configuration, every one issuing a
/// request per round (Fig. 12(b): ten threads).
ArrivalList parallel(std::size_t threads, std::size_t rounds,
                     Duration period);

/// Round r carries `start + step*r` requests (Fig. 13(a): 2, +2 per round).
ArrivalList linear_increasing(std::size_t start, std::size_t step,
                              std::size_t rounds, Duration period,
                              std::size_t configs = 1);

/// Round r carries `start - step*r`, floored at zero (Fig. 13(b)).
ArrivalList linear_decreasing(std::size_t start, std::size_t step,
                              std::size_t rounds, Duration period,
                              std::size_t configs = 1);

/// Round i carries 2^i requests (Fig. 14(a) increasing).
ArrivalList exponential_increasing(std::size_t rounds, Duration period,
                                   std::size_t configs = 1);

/// Round i carries 2^(rounds-1-i) requests (Fig. 14(a) decreasing).
ArrivalList exponential_decreasing(std::size_t rounds, Duration period,
                                   std::size_t configs = 1);

/// Fig. 14(b): `base` requests per round, multiplied by `burst_factor`
/// during each round listed in `burst_rounds`.
ArrivalList burst(std::size_t base, double burst_factor,
                  const std::vector<std::size_t>& burst_rounds,
                  std::size_t rounds, Duration period,
                  std::size_t configs = 1);

/// Square demand: `low` requests per round for `low_rounds` rounds, then
/// `high` for `high_rounds`.  A round's requests land together one second
/// into it, so an interval's peak is its level; request i of a round
/// wants config i % configs.
ArrivalList square_wave(std::size_t low_rounds, std::size_t low,
                        std::size_t high_rounds, std::size_t high,
                        Duration period, std::size_t configs = 1);

/// Poisson arrivals at `rate` (requests/second) over `duration`.
ArrivalList poisson(double rate, Duration duration, Rng& rng,
                    std::size_t configs = 1, double config_zipf = 0.9);

/// Expand per-interval counts (e.g. a daily trace) into arrivals spread
/// evenly inside each interval.
ArrivalList from_counts(const std::vector<double>& counts, Duration interval,
                        std::size_t configs = 1, Rng* rng = nullptr,
                        double config_zipf = 0.9);

/// Requests per interval implied by an arrival list (inverse of
/// from_counts; used to feed predictors the demand series).
std::vector<double> counts_per_interval(const ArrivalList& arrivals,
                                        Duration interval,
                                        std::size_t intervals);

}  // namespace hotc::workload
