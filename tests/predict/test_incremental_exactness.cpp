// Exactness of the incremental predictors.
//
// RegionMarkovChain::observe() updates its counts in O(1) unless a value
// is a new extreme; the production predictors build on it.  These tests
// hold both to the refit-from-scratch definitions bit for bit: the chain
// against a fresh fit() over every prefix, the predictors against the
// references in refit_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "predict/hybrid.hpp"
#include "predict/markov.hpp"
#include "refit_reference.hpp"

namespace hotc::predict {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Compare everything observable about two chains.  `probes` are the
/// values state_of / predict_from / expected_from are evaluated at.
void expect_same_chain(const RegionMarkovChain& got,
                       const RegionMarkovChain& want,
                       const std::vector<double>& probes) {
  ASSERT_EQ(got.fitted(), want.fitted());
  const std::size_t n = want.regions();
  for (const double v : probes) {
    ASSERT_EQ(got.state_of(v), want.state_of(v)) << "value " << v;
    ASSERT_EQ(bits(got.predict_from(v)), bits(want.predict_from(v)))
        << "value " << v;
    ASSERT_EQ(bits(got.expected_from(v)), bits(want.expected_from(v)))
        << "value " << v;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (const std::size_t k : {1u, 2u}) {
        ASSERT_EQ(bits(got.transition_probability(i, j, k)),
                  bits(want.transition_probability(i, j, k)))
            << "P_" << i << j << "(" << k << ")";
      }
    }
  }
}

/// Feed `series` one value at a time; after each, the chain must equal a
/// fresh fit() over the prefix it has seen.
void check_incremental(const std::vector<double>& series,
                       std::size_t regions) {
  RegionMarkovChain chain(regions);
  std::vector<double> prefix;
  for (const double v : series) {
    chain.observe(v);
    prefix.push_back(v);
    RegionMarkovChain fresh(regions);
    fresh.fit(prefix);
    ASSERT_EQ(chain.series(), prefix);
    std::vector<double> probes = prefix;
    probes.push_back(-1e9);  // below every partition
    probes.push_back(1e9);   // above every partition
    SCOPED_TRACE("after " + std::to_string(prefix.size()) + " values");
    ASSERT_NO_FATAL_FAILURE(expect_same_chain(chain, fresh, probes));
  }
}

/// Integer demand with constant runs, repeats of the running min and max,
/// and occasional new extremes in both directions.
std::vector<double> demand_with_runs(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> out;
  double level = 5.0;
  while (out.size() < n) {
    const auto run = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t i = 0; i < run && out.size() < n; ++i) {
      out.push_back(level);
    }
    if (!out.empty() && rng.chance(0.3)) {
      const auto [mn, mx] = std::minmax_element(out.begin(), out.end());
      out.push_back(rng.chance(0.5) ? *mn : *mx);  // exactly at an extreme
    }
    level = std::max(
        0.0, level + static_cast<double>(rng.uniform_int(-3, 3)));
  }
  out.resize(n);
  return out;
}

/// Residual ratios the way HybridPredictor forms them: clamped at +-1.5,
/// so the clamp values recur exactly once the series has reached them.
std::vector<double> clamped_residuals(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::clamp(rng.normal(0.0, 1.2), -1.5, 1.5));
  }
  return out;
}

/// The volatile demand shape of Fig. 10(a): an 8-level base with surges
/// to 19 plus seeded noise (bench_fig10_prediction's series).
std::vector<double> fig10_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  for (std::size_t t = 0; t < n; ++t) {
    const double level = (t % 10 >= 7) ? 19.0 : 8.0;
    out.push_back(std::max(0.0, level + rng.normal(0.0, 1.0)));
  }
  return out;
}

TEST(IncrementalMarkov, ConstantSeriesMatchesFit) {
  check_incremental(std::vector<double>(12, 4.0), 6);
  // Constant, then a break in each direction, then constant again.
  check_incremental({3.0, 3.0, 3.0, 7.0, 7.0, 1.0, 1.0, 1.0, 7.0, 3.0}, 4);
}

TEST(IncrementalMarkov, SeededDemandWithRunsAndExtremesMatchesFit) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 104729u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const std::size_t regions : {2u, 6u, 9u}) {
      ASSERT_NO_FATAL_FAILURE(
          check_incremental(demand_with_runs(seed, 120), regions));
    }
  }
}

TEST(IncrementalMarkov, ClampedResidualsMatchFit) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto series = clamped_residuals(seed, 150);
    ASSERT_GT(std::count(series.begin(), series.end(), 1.5), 1);
    ASSERT_GT(std::count(series.begin(), series.end(), -1.5), 1);
    check_incremental(series, 6);
  }
}

TEST(IncrementalMarkov, MonotoneSeriesRecountsEveryStep) {
  // Every value is a new maximum (then minimum): each observe() takes the
  // recount path and must still agree with fit().
  std::vector<double> up;
  for (int i = 0; i < 30; ++i) up.push_back(static_cast<double>(i) * 0.7);
  check_incremental(up, 6);
  std::vector<double> down(up.rbegin(), up.rend());
  check_incremental(down, 6);
}

TEST(IncrementalMarkov, FitReplacesTheSeries) {
  RegionMarkovChain chain(4);
  for (const double v : {1.0, 2.0, 3.0}) chain.observe(v);
  chain.fit({10.0, 0.0, 10.0});
  EXPECT_EQ(chain.series(), (std::vector<double>{10.0, 0.0, 10.0}));
  // Observing after a fit continues from the fitted series.
  chain.observe(5.0);
  RegionMarkovChain fresh(4);
  fresh.fit({10.0, 0.0, 10.0, 5.0});
  expect_same_chain(chain, fresh, {0.0, 5.0, 10.0});
}

/// Drive two predictors over one series and require bit-identical
/// predict() / markov_region() / smoothed_value() after every step.  A
/// drift-style restart lands at `restart_at` in both.
void expect_same_predictions(Predictor& got, Predictor& want,
                             const std::vector<double>& series,
                             std::size_t restart_at) {
  ASSERT_EQ(bits(got.predict()), bits(want.predict()));
  for (std::size_t t = 0; t < series.size(); ++t) {
    if (t == restart_at) {
      got.restart_smoothing();
      want.restart_smoothing();
    }
    got.observe(series[t]);
    want.observe(series[t]);
    ASSERT_EQ(bits(got.predict()), bits(want.predict())) << "t=" << t;
    ASSERT_EQ(got.markov_region(), want.markov_region()) << "t=" << t;
    ASSERT_EQ(bits(got.smoothed_value()), bits(want.smoothed_value()))
        << "t=" << t;
    ASSERT_EQ(got.observations(), want.observations()) << "t=" << t;
  }
}

std::vector<std::vector<double>> prediction_series() {
  std::vector<std::vector<double>> all;
  all.push_back(fig10_series(300, 11));  // the Fig. 10 bench series
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    all.push_back(demand_with_runs(seed, 300));
    Rng rng(seed + 100);
    std::vector<double> noise;
    for (int i = 0; i < 300; ++i) {
      noise.push_back(std::max(0.0, rng.normal(6.0, 5.0)));
    }
    all.push_back(std::move(noise));
  }
  return all;
}

TEST(IncrementalPredictors, HybridResidualModeMatchesRefit) {
  for (const auto& series : prediction_series()) {
    HybridPredictor got;
    reference::RefitHybrid want;
    expect_same_predictions(got, want, series, 200);
  }
}

TEST(IncrementalPredictors, HybridValueStateModeMatchesRefit) {
  HybridOptions opt;
  opt.mode = HybridMode::kValueState;
  for (const auto& series : prediction_series()) {
    HybridPredictor got(opt);
    reference::RefitHybrid want(opt);
    expect_same_predictions(got, want, series, 200);
  }
}

TEST(IncrementalPredictors, HybridFirstObservationSeedMatchesRefit) {
  HybridOptions opt;
  opt.alpha = 0.3;
  opt.init = InitialValuePolicy::kFirstObservation;
  opt.regions = 4;
  for (const auto& series : prediction_series()) {
    HybridPredictor got(opt);
    reference::RefitHybrid want(opt);
    expect_same_predictions(got, want, series, 150);
  }
}

TEST(IncrementalPredictors, MarkovChainPredictorMatchesRefit) {
  for (const auto& series : prediction_series()) {
    MarkovChainPredictor got;
    reference::RefitMarkov want;
    expect_same_predictions(got, want, series, 200);
  }
}

}  // namespace
}  // namespace hotc::predict
